"""End-to-end tests for the ``python -m repro`` command line."""

import json

import numpy as np
import pytest

from repro.serving import save_artifact
from repro.serving.cli import main


@pytest.fixture(scope="module")
def trained_artifact(tmp_path_factory):
    """A tiny VAE trained through the real ``train`` subcommand."""
    path = tmp_path_factory.mktemp("cli") / "vae-credit"
    code = main(
        [
            "train", "--model", "vae", "--dataset", "credit", "--rows", "300",
            "--epochs", "1", "--hidden", "16", "--latent-dim", "3",
            "--output", str(path), "--seed", "0",
        ]
    )
    assert code == 0
    return path


class TestTrain:
    def test_artifact_written_with_training_metadata(self, trained_artifact):
        manifest = json.loads((trained_artifact / "manifest.json").read_text())
        assert manifest["model_class"] == "VAE"
        assert manifest["metadata"] == {
            "dataset": "credit", "rows": 300, "seed": 0, "labeled": True,
        }
        assert manifest["hyperparameters"]["hidden"] == [16]

    def test_workers_option_is_rejected(self, capsys):
        # Training steps run serially; there is no worker-pool option to set.
        from repro.serving.cli import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                [
                    "train", "--model", "vae", "--dataset", "credit",
                    "--output", "artifact", "--workers", "2",
                ]
            )
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_inapplicable_hyperparameters_are_ignored_not_fatal(self, tmp_path, capsys):
        code = main(
            [
                "train", "--model", "privbayes", "--dataset", "credit", "--rows", "200",
                "--epochs", "3", "--epsilon", "1.0", "--output", str(tmp_path / "pb"),
            ]
        )
        assert code == 0
        assert "does not take --epochs" in capsys.readouterr().out


class TestSample:
    def test_streams_csv_with_header(self, trained_artifact, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(
            [
                "sample", "--artifact", str(trained_artifact), "-n", "500",
                "--chunk-size", "128", "--seed", "1", "--output", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 501  # header + rows
        assert lines[0].startswith("feature_0,")
        assert len(lines[1].split(",")) == len(lines[0].split(","))

    def test_same_seed_gives_identical_csv(self, trained_artifact, tmp_path):
        outputs = []
        for run in range(2):
            out = tmp_path / f"run{run}.csv"
            main(
                [
                    "sample", "--artifact", str(trained_artifact), "-n", "64",
                    "--seed", "42", "--output", str(out),
                ]
            )
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]

    def test_labeled_csv_has_label_column(self, trained_artifact, tmp_path):
        out = tmp_path / "labeled.csv"
        code = main(
            [
                "sample", "--artifact", str(trained_artifact), "-n", "40",
                "--labeled", "--seed", "3", "--output", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].endswith(",label")
        labels = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert labels <= {"0", "1"}

    def test_bad_artifact_path_exits_nonzero(self, tmp_path, capsys):
        code = main(["sample", "--artifact", str(tmp_path / "missing"), "-n", "10"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_damaged_weights_exit_2_with_an_error_line(
        self, trained_artifact, tmp_path, capsys, damage_npz
    ):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(trained_artifact, broken)
        damage_npz(broken / "weights.npz")
        code = main(["sample", "--artifact", str(broken), "-n", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "weights.npz" in err

    def test_labeled_sampling_from_unlabeled_artifact_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "unlabeled"
        main(
            [
                "train", "--model", "vae", "--dataset", "credit", "--rows", "200",
                "--epochs", "1", "--hidden", "8", "--unlabeled", "--output", str(path),
            ]
        )
        capsys.readouterr()
        code = main(["sample", "--artifact", str(path), "-n", "10", "--labeled"])
        assert code == 2
        assert "without labels" in capsys.readouterr().err


class TestInspect:
    def test_prints_privacy_and_hyperparameters(self, trained_artifact, capsys):
        assert main(["inspect", "--artifact", str(trained_artifact)]) == 0
        out = capsys.readouterr().out
        assert "privacy spent:" in out
        assert "epsilon=inf" in out
        assert "model class:    VAE" in out
        assert "latent_dim = 3" in out

    def test_json_mode_round_trips(self, trained_artifact, capsys):
        assert main(["inspect", "--artifact", str(trained_artifact), "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["format_version"] == 2

    def test_private_model_manifest_reports_spent_epsilon(self, tmp_path, capsys, fitted_models):
        path = save_artifact(fitted_models["p3gm"], tmp_path / "p3gm")
        assert main(["inspect", "--artifact", str(path)]) == 0
        out = capsys.readouterr().out
        eps, _ = fitted_models["p3gm"].privacy_spent()
        assert f"epsilon={eps:.6g}" in out


class TestEvaluate:
    def test_evaluates_against_recorded_dataset(self, trained_artifact, capsys):
        code = main(["evaluate", "--artifact", str(trained_artifact), "--rows", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Utility of vae on credit" in out
        assert "auroc" in out


class TestServe:
    def test_missing_root_exits_nonzero(self, tmp_path, capsys):
        code = main(["serve", "--root", str(tmp_path / "nowhere"), "--port", "0"])
        assert code == 2
        assert "is not a directory" in capsys.readouterr().err

    def test_busy_port_is_an_error_message_not_a_traceback(self, tmp_path, capsys):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        try:
            code = main(["serve", "--root", str(tmp_path), "--port", str(port)])
        finally:
            blocker.close()
        assert code == 2
        assert "cannot bind" in capsys.readouterr().err

    def test_parser_defaults_match_the_documented_contract(self):
        from repro.serving.cli import build_parser

        args = build_parser().parse_args(["serve", "--root", "artifacts"])
        assert (args.host, args.port) == ("127.0.0.1", 8000)
        assert args.workers == 8
        assert args.max_rows is None  # resolved to DEFAULT_MAX_ROWS lazily
        assert args.max_connections == 128


class TestCsvHoldout:
    """Satellite regression: labelled --data training must hold out a test fold."""

    @pytest.fixture()
    def labeled_csv(self, tmp_path):
        from repro.datasets import load_dataset
        from repro.transforms import write_csv

        dataset = load_dataset("adult_mixed", n_samples=400, random_state=0)
        rows = np.empty((len(dataset.X_train), dataset.X_train.shape[1] + 1), dtype=object)
        rows[:, :-1] = dataset.X_train
        rows[:, -1] = dataset.y_train
        path = tmp_path / "adult.csv"
        write_csv(path, rows, names=list(dataset.schema.names) + ["income"])
        return path, len(rows)

    def test_manifest_records_the_holdout_split(self, labeled_csv, tmp_path, capsys):
        csv_path, total_rows = labeled_csv
        artifact = tmp_path / "artifact"
        assert main(
            [
                "train", "--model", "privbayes", "--data", str(csv_path),
                "--label", "income", "--epsilon", "1.0",
                "--output", str(artifact), "--seed", "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        manifest = json.loads((artifact / "manifest.json").read_text())
        assert manifest["metadata"]["holdout"] == {
            "test_size": 0.1, "stratify": True, "seed": 3,
        }
        # ``rows`` is the full CSV; the model only ever saw the train fold.
        assert manifest["metadata"]["rows"] == total_rows
        train_fold = total_rows - round(total_rows * 0.1)
        assert f"({train_fold} rows" in out

    def test_evaluate_replays_the_recorded_fold_disjoint_from_training(
        self, labeled_csv, tmp_path, capsys
    ):
        from repro.ml.preprocessing import train_test_split
        from repro.serving.cli import _dataset_from_csv
        from repro.transforms import read_csv
        from repro.transforms.column import as_typed_values

        csv_path, total_rows = labeled_csv
        holdout = {"test_size": 0.1, "stratify": True, "seed": 3}
        data = _dataset_from_csv(csv_path, "income", seed=999, holdout=holdout)
        replay = _dataset_from_csv(csv_path, "income", seed=999, holdout=holdout)
        # Deterministic replay: the recorded parameters pin the split, the
        # caller's seed is irrelevant once a holdout record exists.
        assert (data.X_test == replay.X_test).all()
        assert len(data.X_test) == round(total_rows * 0.1)
        # The test fold is exactly the rows the training run left out.
        names, rows = read_csv(csv_path)
        index = names.index("income")
        labels = as_typed_values(rows[:, index])
        keep = [i for i in range(rows.shape[1]) if i != index]
        train_rows, _, _, _ = train_test_split(
            rows[:, keep], labels, test_size=0.1, stratify=True, random_state=3
        )
        train_keys = {",".join(map(str, row)) for row in train_rows}
        test_keys = {",".join(map(str, row)) for row in data.X_test}
        assert (data.X_train == train_rows).all()
        assert not (test_keys & train_keys)

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_missing_label_column_is_an_error_message(
        self, command, labeled_csv, trained_artifact, tmp_path, capsys
    ):
        # ``train --data`` and ``evaluate`` read the CSV through one split
        # helper; both report the missing label column, not a traceback.
        csv_path, _ = labeled_csv
        if command == "train":
            argv = [
                "train", "--model", "privbayes", "--data", str(csv_path),
                "--label", "wage", "--output", str(tmp_path / "artifact"),
            ]
        else:
            argv = [
                "evaluate", "--artifact", str(trained_artifact),
                "--data", str(csv_path), "--label", "wage",
            ]
        assert main(argv) == 2
        assert "label column 'wage' is not in" in capsys.readouterr().err

    def test_end_to_end_evaluate_uses_the_holdout(self, labeled_csv, tmp_path, capsys):
        csv_path, _ = labeled_csv
        artifact = tmp_path / "artifact"
        assert main(
            [
                "train", "--model", "privbayes", "--data", str(csv_path),
                "--label", "income", "--epsilon", "3.0",
                "--output", str(artifact), "--seed", "0",
            ]
        ) == 0
        capsys.readouterr()
        assert main(["evaluate", "--artifact", str(artifact)]) == 0
        assert "auroc" in capsys.readouterr().out


class TestObs:
    def test_a_source_is_required(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["obs"])
        assert exit_info.value.code == 2
        assert "one of the arguments --url --trace is required" in capsys.readouterr().err

    def test_trace_rendering_builds_indented_trees(self, tmp_path, capsys):
        from repro.obs import Tracer
        from repro.utils.logging import StructuredLogger

        path = tmp_path / "trace.jsonl"
        with open(path, "w") as handle:
            tracer = Tracer(StructuredLogger(handle))
            with tracer.span("http.request", trace_id="req-1", route="sample"):
                with tracer.span("model.sample", rows=64):
                    pass
            handle.write("{torn json line\n")  # live writers tear lines
        assert main(["obs", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trace req-1 (2 span(s))" in out
        lines = out.splitlines()
        request_line = next(line for line in lines if "http.request" in line)
        child_line = next(line for line in lines if "model.sample" in line)
        # The child is indented one level deeper than its parent.
        assert len(child_line) - len(child_line.lstrip()) \
            == len(request_line) - len(request_line.lstrip()) + 2
        assert "route=sample" in request_line
        assert "rows=64" in child_line

    def test_trace_of_empty_file_is_not_an_error(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["obs", "--trace", str(path)]) == 0
        assert "(no spans" in capsys.readouterr().out

    def test_url_fetches_a_running_server(self, tmp_path, capsys):
        import threading

        from repro.models import VAE
        from repro.server import SynthesisHTTPServer
        from repro.serving.service import SynthesisService

        X = np.random.default_rng(0).random((120, 6)).astype(np.float64)
        model = VAE(latent_dim=2, hidden=(8,), epochs=1, batch_size=40,
                    random_state=0).fit(X)
        save_artifact(model, tmp_path / "vae")
        service = SynthesisService(artifact_root=tmp_path)
        server = SynthesisHTTPServer(("127.0.0.1", 0), service, workers=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.port}"
            assert main(["obs", "--url", url]) == 0
            table = capsys.readouterr().out
            assert "repro_http_requests_total (counter)" in table
            assert main(["obs", "--url", url, "--format", "prometheus"]) == 0
            assert "# TYPE repro_http_requests_total counter" in capsys.readouterr().out
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_url_and_trace_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["obs", "--url", "http://x", "--trace", "t.jsonl"])
        assert "not allowed with" in capsys.readouterr().err


class TestBench:
    def test_list_prints_registered_specs(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("table6_private_tabular", "fig6_composition", "smoke"):
            assert name in out

    def test_runs_a_named_spec_and_writes_summary_and_store(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "bench", "--spec", "fig6_composition", "--workers", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--output", str(tmp_path / "BENCH_experiments.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "epsilon_rdp" in out and "mean±std" in out
        summary = json.loads((tmp_path / "BENCH_experiments.json").read_text())
        assert summary["experiment"] == "fig6_composition"
        assert summary["executed"] == 6 and summary["cached"] == 0
        store_lines = (tmp_path / "BENCH_experiments.jsonl").read_text().strip().splitlines()
        assert len(store_lines) == 6
        # A rerun over the same cache executes nothing.
        assert main(
            [
                "bench", "--spec", "fig6_composition",
                "--cache-dir", str(tmp_path / "cache"),
                "--output", str(tmp_path / "BENCH_experiments.json"),
            ]
        ) == 0
        summary = json.loads((tmp_path / "BENCH_experiments.json").read_text())
        assert summary["executed"] == 0 and summary["cached"] == 6

    def test_seeds_override_expands_replicates(self, tmp_path, capsys):
        code = main(
            [
                "bench", "--spec", "fig6_composition", "--seeds", "0", "1",
                "--output", str(tmp_path / "b.json"), "--store", str(tmp_path / "b.jsonl"),
            ]
        )
        assert code == 0
        summary = json.loads((tmp_path / "b.json").read_text())
        # Composition trials ignore the seed analytically but still replicate.
        assert summary["trials"] == 12
        assert all(row["n_seeds"] == 2 for row in summary["aggregate"])

    def test_unknown_spec_exits_nonzero(self, tmp_path, capsys):
        assert main(["bench", "--spec", "table99", "--output", str(tmp_path / "x.json")]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_missing_spec_argument_exits_nonzero(self, capsys):
        assert main(["bench"]) == 2
        assert "--spec" in capsys.readouterr().err
