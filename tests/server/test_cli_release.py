"""``repro sample`` releases the bytes the HTTP tier releases.

The CLI and ``POST .../sample`` (``"format": "csv"``) open their streams,
name their columns and encode their rows through the same code, so for one
artifact, seed and chunk size a CLI file must equal the HTTP body byte for
byte: unlabelled and labelled, model space and original space, for every
registered synthesizer.
"""

import pytest

from repro.serving.cli import main
from repro.serving.registry import registered_synthesizers
from server_kit import serve_root

N, SEED, CHUNK = 37, 11, 16


@pytest.fixture(scope="module")
def http(mixed_artifact_root):
    with serve_root(mixed_artifact_root, workers=2) as running:
        yield running


def cli_argv(root, name, labeled, model_space, output):
    argv = [
        "sample", "--artifact", str(root / name), "-n", str(N), "--seed", str(SEED),
        "--chunk-size", str(CHUNK), "--output", output,
    ]
    return argv + ["--labeled"] * labeled + ["--model-space"] * model_space


@pytest.mark.parametrize("model_space", [False, True], ids=["original", "model_space"])
@pytest.mark.parametrize("labeled", [False, True], ids=["sample", "sample_labeled"])
@pytest.mark.parametrize("name", registered_synthesizers())
def test_cli_file_equals_the_http_body(
    http, mixed_artifact_root, tmp_path, capsys, name, labeled, model_space
):
    _, client, _ = http
    body = client.sample_raw(
        name, N, seed=SEED, chunk_size=CHUNK, fmt="csv",
        model_space=model_space, labeled=labeled,
    )
    out = tmp_path / "rows.csv"
    assert main(cli_argv(mixed_artifact_root, name, labeled, model_space, str(out))) == 0
    assert capsys.readouterr().out == f"wrote {N} rows to {out}\n"
    assert out.read_bytes() == body


def test_cli_stdout_equals_the_http_body(http, mixed_artifact_root, capsysbinary):
    _, client, _ = http
    body = client.sample_raw("privbayes", N, seed=SEED, chunk_size=CHUNK, fmt="csv", labeled=True)
    assert main(cli_argv(mixed_artifact_root, "privbayes", True, False, "-")) == 0
    assert capsysbinary.readouterr().out == body
