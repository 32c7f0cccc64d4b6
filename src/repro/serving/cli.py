"""``python -m repro`` — train, release, inspect, and query synthesizers.

Subcommands
-----------
- ``train``    — fit a registered synthesizer on a simulated dataset *or* on
  a mixed-type CSV (``--data table.csv``, schema declared via ``--schema`` or
  inferred) and write a versioned artifact (weights + manifest + the fitted
  preprocessing transformer when one was used).
- ``sample``   — stream synthetic rows from an artifact to CSV/stdout in
  bounded-memory chunks (``-n 10_000_000`` never builds one dense array).
  Artifacts released with a transformer emit **original-space** rows — real
  category labels and raw numeric ranges — by default (``--model-space``
  opts out).  The file is byte for byte the body ``serve`` returns for the
  same ``POST .../sample`` with ``"format": "csv"``: exact (shortest
  round-trip) floats, model-space columns named ``feature_i``.
- ``evaluate`` — run the paper's utility protocol (classifiers trained on
  synthetic data, tested on real data) against a released artifact.
- ``inspect``  — print an artifact's manifest, including the ``(epsilon,
  delta)`` guarantee recorded at release time.
- ``bench``    — run a named experiment spec (a paper table/figure grid or
  the miniaturized ``smoke``/``mixed_smoke`` presets) through the parallel,
  resumable experiment runner; writes the JSONL trial records plus a
  ``BENCH_experiments.json`` summary and prints the aggregated table.
- ``serve``    — put a directory of artifacts on the network: the concurrent
  HTTP synthesis API of :mod:`repro.server` (``/healthz``, ``/metrics``,
  ``/v1/models``, streamed ``POST .../sample``), with a bounded worker pool
  and structured JSON access logs on stderr.
- ``obs``      — inspect observability data: pretty-print a running
  server's ``/metrics`` (``--url``) as a table, JSON, or Prometheus text, or
  render a ``REPRO_TRACE`` span JSONL file as per-request/per-trial timing
  trees (``--trace``).  One of the two sources is required.

Examples::

    python -m repro train --model p3gm --dataset credit --rows 2000 \
        --epochs 2 --hidden 64 --epsilon 1.0 --output artifacts/p3gm-credit
    python -m repro train --model privbayes --data adult.csv --label income \
        --epsilon 1.0 --output artifacts/privbayes-adult
    python -m repro inspect --artifact artifacts/p3gm-credit
    python -m repro sample --artifact artifacts/privbayes-adult -n 1_000_000 \
        --chunk-size 8192 --seed 7 --output synthetic.csv
    python -m repro evaluate --artifact artifacts/p3gm-credit
    python -m repro bench --spec fig6_composition
    python -m repro bench --spec smoke --workers 4 --seeds 0 1 2 \
        --cache-dir .bench-cache --store smoke.jsonl
    python -m repro serve --root artifacts --port 8000 --workers 8
    python -m repro obs --url http://127.0.0.1:8000
    python -m repro obs --url http://127.0.0.1:8000 --format prometheus
    REPRO_TRACE=trace.jsonl python -m repro bench --spec smoke && \
        python -m repro obs --trace trace.jsonl
"""

from __future__ import annotations

import argparse
import inspect
import json
import signal
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

from repro.datasets import load_dataset
from repro.serving.artifacts import (
    ArtifactError,
    load_artifact,
    manifest_privacy,
    read_manifest,
    save_artifact,
)
from repro.serving.registry import get_model_spec, registered_synthesizers
from repro.serving.service import DEFAULT_CHUNK_SIZE, SynthesisService
from repro.transforms import TableSchema, TableTransformer, read_csv

__all__ = ["main", "build_parser"]


def _parse_hidden(text: str) -> tuple:
    return tuple(int(width) for width in text.split(",") if width.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Train, release, inspect, and query private synthesizers.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    train = subparsers.add_parser("train", help="fit a synthesizer and write an artifact")
    train.add_argument("--model", required=True, choices=registered_synthesizers())
    source = train.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", default=None, help="dataset registry name (e.g. credit)")
    source.add_argument("--data", type=Path, default=None,
                        help="CSV file to train on (mixed types allowed)")
    train.add_argument("--schema", type=Path, default=None,
                       help="table schema JSON for --data (default: inferred)")
    train.add_argument("--label", default=None,
                       help="label column name in --data (trains a labeled model)")
    train.add_argument("--rows", type=int, default=None, help="simulated dataset size")
    train.add_argument("--output", required=True, type=Path, help="artifact directory to write")
    train.add_argument("--name", default=None, help="artifact name recorded in the manifest")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--unlabeled", action="store_true", help="fit without labels")
    train.add_argument("--epochs", type=int, default=None)
    train.add_argument("--batch-size", type=int, default=None)
    train.add_argument("--latent-dim", type=int, default=None)
    train.add_argument("--hidden", type=_parse_hidden, default=None, help="comma-separated widths")
    train.add_argument("--learning-rate", type=float, default=None)
    train.add_argument("--epsilon", type=float, default=None)
    train.add_argument("--delta", type=float, default=None)
    train.add_argument("--noise-multiplier", type=float, default=None)
    train.add_argument("--checkpoint-every", type=int, default=None,
                       help="write a training checkpoint every N epochs")
    train.add_argument("--checkpoint-dir", type=Path, default=None,
                       help="checkpoint directory (default: <output>/checkpoints)")
    train.add_argument("--resume", action="store_true",
                       help="resume from the newest checkpoint in the checkpoint "
                            "directory (bit-identical to an uninterrupted run)")

    sample = subparsers.add_parser("sample", help="stream synthetic rows from an artifact")
    sample.add_argument("--artifact", required=True, type=Path)
    sample.add_argument("-n", "--n-samples", required=True, type=int)
    sample.add_argument("--output", default="-", help="CSV path ('-' for stdout)")
    sample.add_argument("--seed", type=int, default=None, help="per-request seed")
    sample.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE)
    sample.add_argument("--labeled", action="store_true", help="emit (features, label) rows")
    sample.add_argument("--no-header", action="store_true")
    sample.add_argument("--model-space", action="store_true",
                        help="emit raw model-space [0, 1] columns even when the "
                             "artifact carries a preprocessing transformer")

    evaluate = subparsers.add_parser("evaluate", help="utility protocol against an artifact")
    evaluate.add_argument("--artifact", required=True, type=Path)
    evaluate.add_argument("--dataset", default=None, help="defaults to the training dataset")
    evaluate.add_argument("--data", type=Path, default=None,
                          help="CSV to evaluate against (defaults to the training "
                               "CSV recorded in a --data-trained artifact)")
    evaluate.add_argument("--label", default=None,
                          help="label column in --data (defaults to the artifact's)")
    evaluate.add_argument("--rows", type=int, default=None)
    evaluate.add_argument("--synthetic-rows", type=int, default=None)
    evaluate.add_argument("--seed", type=int, default=0)

    inspect_cmd = subparsers.add_parser("inspect", help="print an artifact's manifest")
    inspect_cmd.add_argument("--artifact", required=True, type=Path)
    inspect_cmd.add_argument("--json", action="store_true", help="raw JSON output")

    bench = subparsers.add_parser("bench", help="run a named experiment spec")
    bench.add_argument("--spec", default=None, help="experiment spec name (e.g. fig6_composition)")
    bench.add_argument("--list", action="store_true", help="list registered specs and exit")
    bench.add_argument("--workers", type=int, default=1, help="process-pool size (1 = serial)")
    bench.add_argument("--seeds", type=int, nargs="+", default=None,
                       help="replicate seeds overriding the spec's seed axis")
    bench.add_argument("--cache-dir", type=Path, default=None,
                       help="content-addressed trial cache (enables resume)")
    bench.add_argument("--store", type=Path, default=None,
                       help="JSONL record output (default: <output stem>.jsonl)")
    bench.add_argument("--output", type=Path, default=Path("BENCH_experiments.json"),
                       help="summary JSON output")

    serve = subparsers.add_parser("serve", help="serve synthesis requests over HTTP")
    serve.add_argument("--root", required=True, type=Path,
                       help="directory whose artifact subdirectories become model refs")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000, help="0 picks an ephemeral port")
    serve.add_argument("--workers", type=int, default=8,
                       help="max concurrent synthesis streams per process "
                            "(excess gets 429)")
    # default None -> os.cpu_count(), resolved in _cmd_serve
    serve.add_argument("--processes", type=int, default=None,
                       help="pre-forked server processes sharing the listening "
                            "socket (default: CPU count; 1 = in-process server)")
    # default None -> repro.server.app.DEFAULT_MAX_ROWS, resolved in
    # _cmd_serve so the other subcommands never import the HTTP tier.
    serve.add_argument("--max-rows", type=int, default=None,
                       help="per-request row limit, default 1_000_000 "
                            "(excess gets 413)")
    serve.add_argument("--max-connections", type=int, default=128,
                       help="open-connection cap (excess closed at accept time)")
    serve.add_argument("--cache-size", type=int, default=4, help="LRU model cache size")
    serve.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE,
                       help="default rows per streamed chunk (the memory bound)")

    obs = subparsers.add_parser(
        "obs", help="inspect metrics snapshots and trace timing trees"
    )
    obs_source = obs.add_mutually_exclusive_group(required=True)
    obs_source.add_argument("--url", default=None,
                            help="base URL of a running `repro serve` instance; "
                                 "fetches and renders its /metrics")
    obs_source.add_argument("--trace", type=Path, default=None,
                            help="span JSONL file (REPRO_TRACE output) to render "
                                 "as per-trace timing trees")
    obs.add_argument("--format", choices=("table", "json", "prometheus"),
                     default="table",
                     help="metrics rendering (ignored with --trace)")
    return parser


# ----------------------------------------------------------------------------------
# train
# ----------------------------------------------------------------------------------


def _model_kwargs(args: argparse.Namespace, cls: type) -> dict:
    """Collect the hyper-parameters the user set and the class accepts."""
    requested = {
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "latent_dim": args.latent_dim,
        "hidden": args.hidden,
        "learning_rate": args.learning_rate,
        "epsilon": args.epsilon,
        "delta": args.delta,
        "noise_multiplier": args.noise_multiplier,
    }
    accepted = set(inspect.signature(cls.__init__).parameters)
    kwargs = {}
    for key, value in requested.items():
        if value is None:
            continue
        if key not in accepted:
            print(f"note: {cls.__name__} does not take --{key.replace('_', '-')}; ignoring")
            continue
        kwargs[key] = value
    return kwargs


#: The deterministic train/holdout split applied to labelled ``--data`` CSVs.
#: Recorded in the artifact's metadata so ``evaluate`` replays the identical
#: split and scores on rows the model (and transformer) never saw.
CSV_HOLDOUT_TEST_SIZE = 0.1


def _split_labelled_csv(path, label, holdout: dict) -> tuple:
    """Read a labelled CSV and split off its holdout fold.

    Pulls ``label`` out of the table and splits the remaining columns with
    the ``holdout`` record's ``test_size``, ``stratify`` and ``seed``.
    Returns ``(feature_names, X_train, X_test, y_train, y_test)``.
    """
    from repro.ml.preprocessing import train_test_split
    from repro.transforms.column import as_typed_values

    names, rows = read_csv(path)
    if label not in names:
        raise ValueError(f"label column {label!r} is not in {path} (columns: {names})")
    index = names.index(label)
    labels = as_typed_values(rows[:, index])
    keep = [i for i in range(rows.shape[1]) if i != index]
    X_train, X_test, y_train, y_test = train_test_split(
        rows[:, keep], labels, test_size=holdout["test_size"],
        stratify=holdout["stratify"], random_state=holdout["seed"],
    )
    return [names[i] for i in keep], X_train, X_test, y_train, y_test


def _load_csv_training_table(args: argparse.Namespace):
    """The ``--data table.csv`` path: returns ``(X, labels, transformer, metadata)``.

    Features are encoded through a :class:`TableTransformer` built from the
    declared (``--schema``) or inferred schema; the fitted transformer is
    persisted in the artifact so sampling can restore original-space rows.

    Labelled tables are split *before* anything is fitted: the transformer
    and the model see only the training fold, and the split parameters are
    recorded under ``metadata["holdout"]`` so ``python -m repro evaluate``
    reconstructs the same held-out fold instead of re-splitting the full CSV
    (which would score the model on rows it trained on).
    """
    labels = None
    holdout = None
    if args.label is None:
        names, rows = read_csv(args.data)
        total_rows = len(rows)
    else:
        holdout = {
            "test_size": CSV_HOLDOUT_TEST_SIZE,
            "stratify": True,
            "seed": args.seed,
        }
        names, rows, held_out, labels, _ = _split_labelled_csv(
            args.data, args.label, holdout
        )
        total_rows = len(rows) + len(held_out)
    schema = None
    if args.schema is not None:
        schema = TableSchema.from_json(args.schema)
        if args.label is not None and args.label in schema.names:
            schema = schema.drop(args.label)
    transformer = TableTransformer(schema)
    X = transformer.fit_transform(rows, names=names)
    metadata = {
        "data": str(args.data),
        "rows": total_rows,
        "label": args.label,
        "seed": args.seed,
        "labeled": labels is not None,
    }
    if holdout is not None:
        metadata["holdout"] = holdout
    return X, labels, transformer, metadata, args.data.name


def _load_dataset_training_table(args: argparse.Namespace):
    """The ``--dataset name`` path; mixed-type simulators are encoded here."""
    data = load_dataset(args.dataset, n_samples=args.rows, random_state=args.seed)
    labels = None if args.unlabeled else data.y_train
    transformer = None
    X = data.X_train
    if data.is_mixed_type:
        transformer = TableTransformer(data.schema).fit(data.X_train)
        X = transformer.transform(data.X_train)
    metadata = {
        "dataset": args.dataset,
        "rows": len(data.X_train) + len(data.X_test),
        "seed": args.seed,
        "labeled": not args.unlabeled,
    }
    return X, labels, transformer, metadata, data.name


def _configure_training_engine(args: argparse.Namespace, model) -> None:
    """Wire the checkpoint/resume flags into the model."""
    from repro.engine import CheckpointableMixin, latest_checkpoint

    if args.checkpoint_every is None and args.checkpoint_dir is None and not args.resume:
        return
    if not isinstance(model, CheckpointableMixin):
        raise ValueError(
            f"model {args.model!r} does not train through the engine and "
            "does not support checkpointing"
        )
    directory = args.checkpoint_dir or args.output / "checkpoints"
    model.configure_checkpointing(
        directory, every=args.checkpoint_every or 1, resume=args.resume
    )
    if args.resume:
        found = latest_checkpoint(directory)
        if found is None:
            print(f"no checkpoint under {directory}; starting fresh")
        else:
            print(f"resuming from {found}")


def _cmd_train(args: argparse.Namespace) -> int:
    spec = get_model_spec(args.model)
    if args.data is not None:
        X, labels, transformer, metadata, source = _load_csv_training_table(args)
    else:
        X, labels, transformer, metadata, source = _load_dataset_training_table(args)
    kwargs = _model_kwargs(args, spec.cls)
    model = spec.cls(random_state=args.seed, **kwargs)
    _configure_training_engine(args, model)
    encoded = "" if transformer is None else f", {X.shape[1]} encoded columns"
    print(f"training {spec.cls.__name__} on {source} ({len(X)} rows{encoded})...")
    model.fit(X, labels)
    epsilon, delta = model.privacy_spent()
    save_artifact(
        model,
        args.output,
        name=args.name or args.model,
        metadata=metadata,
        transformer=transformer,
    )
    print(f"privacy spent: epsilon={epsilon:.4g} delta={delta:g}")
    print(f"artifact written to {args.output}")
    return 0


# ----------------------------------------------------------------------------------
# sample
# ----------------------------------------------------------------------------------


@contextmanager
def _open_output(target: str):
    """A binary handle on ``target`` (``-`` is stdout)."""
    if target == "-":
        sys.stdout.flush()
        try:
            yield sys.stdout.buffer
        finally:
            sys.stdout.buffer.flush()
    else:
        path = Path(target)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            yield handle


def _cmd_sample(args: argparse.Namespace) -> int:
    # The HTTP tier's stream, names and CSV encoder: a file written here is
    # byte for byte the body of the same POST .../sample with "format": "csv".
    from repro.server.protocol import encode_chunk, header_line

    service = SynthesisService(chunk_size=args.chunk_size)
    stream, names = service.open_release(
        args.artifact,
        args.n_samples,
        labeled=args.labeled,
        seed=args.seed,
        chunk_size=args.chunk_size,
        model_space=args.model_space,
    )
    written = 0
    with _open_output(args.output) as out:
        if not args.no_header:
            out.write(header_line("csv", names))
        for chunk in stream:
            features, labels = chunk if args.labeled else (chunk, None)
            out.write(encode_chunk("csv", features, labels))
            written += len(features)
    if args.output != "-":
        print(f"wrote {written} rows to {args.output}")
    return 0


# ----------------------------------------------------------------------------------
# evaluate
# ----------------------------------------------------------------------------------


def _dataset_from_csv(path, label, seed, holdout=None):
    """Build a train/test-split :class:`Dataset` from a labelled CSV for evaluation.

    ``holdout`` is the split record a labelled ``--data`` training run wrote
    into the artifact's metadata; replaying the same deterministic parameters
    reconstructs exactly the fold the model was fitted on, so the test fold
    contains only rows the model never saw.  Legacy artifacts without the
    record (and explicit evaluations of a *different* CSV) fall back to a
    fresh 90/10 split keyed on ``seed``.
    """
    from repro.datasets import Dataset

    if label is None:
        raise ValueError(
            "evaluating a CSV-trained artifact needs its label column; pass --label"
        )
    split = {"test_size": CSV_HOLDOUT_TEST_SIZE, "stratify": True, "seed": seed}
    split.update(holdout or {})
    _, X_train, X_test, y_train, y_test = _split_labelled_csv(path, label, split)
    return Dataset(
        name=Path(path).name,
        X_train=X_train,
        X_test=X_test,
        y_train=y_train,
        y_test=y_test,
        description=f"evaluation split of {path}",
    )


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.evaluation import evaluate_artifact, format_rows

    manifest = read_manifest(args.artifact)
    metadata = manifest.get("metadata", {})
    dataset_name = args.dataset or metadata.get("dataset")
    data_path = args.data or metadata.get("data")
    if dataset_name is not None and args.data is None:
        rows = args.rows if args.rows is not None else metadata.get("rows")
        # Regenerate the training-time dataset (same simulator seed) unless
        # the caller explicitly evaluates on a different dataset.
        dataset_seed = metadata.get("seed", args.seed) if args.dataset is None else args.seed
        data = load_dataset(dataset_name, n_samples=rows, random_state=dataset_seed)
    elif data_path is not None:
        # CSV-trained artifact (or explicit --data): reconstruct the recorded
        # train/holdout split (fresh split for legacy artifacts or a
        # different CSV) and run the protocol through the artifact's stored
        # transformer.
        same_csv = args.data is None or str(args.data) == metadata.get("data")
        data = _dataset_from_csv(
            data_path,
            args.label or metadata.get("label"),
            metadata.get("seed", args.seed),
            holdout=metadata.get("holdout") if same_csv else None,
        )
    else:
        print(
            "error: artifact records neither a dataset nor a training CSV; "
            "pass --dataset or --data",
            file=sys.stderr,
        )
        return 2
    result = evaluate_artifact(
        args.artifact, data, n_synthetic=args.synthetic_rows, random_state=args.seed
    )
    print(format_rows([result.as_row()], title=f"Utility of {manifest['name']} on {data.name}"))
    return 0


# ----------------------------------------------------------------------------------
# inspect
# ----------------------------------------------------------------------------------


def _cmd_inspect(args: argparse.Namespace) -> int:
    manifest = read_manifest(args.artifact)
    if args.json:
        print(json.dumps(manifest, indent=2))
        return 0
    epsilon, delta = manifest_privacy(manifest)
    schema = manifest.get("schema", {})
    print(f"artifact:       {args.artifact}")
    print(f"name:           {manifest['name']}")
    print(f"model class:    {manifest['model_class']}")
    print(f"format version: {manifest['format_version']} (repro {manifest.get('repro_version')})")
    print(f"created at:     {manifest.get('created_at')}")
    print(f"privacy spent:  epsilon={epsilon:.6g}  delta={delta:g}")
    print(f"schema:         {schema.get('n_input_features')} input features, "
          f"classes={schema.get('classes')}")
    transformer = manifest.get("transformer")
    if transformer:
        kinds = ", ".join(
            f"{column['name']}:{column['kind']}"
            for column in transformer["schema"]["columns"]
        )
        print(f"transformer:    {transformer.get('numeric', 'minmax')} numeric; {kinds}")
    print("hyperparameters:")
    for key, value in sorted(manifest["hyperparameters"].items()):
        print(f"  {key} = {value}")
    if manifest.get("metadata"):
        print("metadata:")
        for key, value in sorted(manifest["metadata"].items()):
            print(f"  {key} = {value}")
    return 0


# ----------------------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------------------


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments import (
        ResultStore,
        Runner,
        aggregate_records,
        default_code_version,
        expand_specs,
        experiment_names,
        format_aggregate,
        get_experiment,
    )

    if args.list:
        for name in experiment_names():
            specs = get_experiment(name)
            print(f"{name:<26} {len(expand_specs(specs))} trials")
        return 0
    name = args.spec
    if name is None:
        print("error: pass --spec NAME or --list", file=sys.stderr)
        return 2
    specs = get_experiment(name)
    if args.seeds is not None:
        specs = tuple(spec.with_seeds(args.seeds) for spec in specs)
    trials = expand_specs(specs)
    store_path = args.store or args.output.with_suffix(".jsonl")
    print(f"running {name}: {len(trials)} trials, {args.workers} worker(s)...")

    def progress(done, total, trial):
        label = trial.model or trial.kind
        print(f"  [{done}/{total}] {trial.kind}:{label}"
              + (f" on {trial.dataset}" if trial.dataset else ""))

    runner = Runner(workers=args.workers, cache_dir=args.cache_dir)
    try:
        report = runner.run(specs, store=ResultStore(store_path), progress=progress)
    except Exception:
        # Unlike artifact-validation errors, a crashing trial needs its full
        # traceback to be diagnosable from (nightly) CI logs.
        import traceback

        traceback.print_exc()
        print(f"error: a trial of {name!r} failed; see traceback above", file=sys.stderr)
        return 1
    aggregate = aggregate_records(report.records)
    print()
    print(format_aggregate(aggregate, title=f"{name} (mean±std over seeds)"))
    summary = {
        "experiment": name,
        "code_version": default_code_version(),
        "workers": args.workers,
        "trials": report.total,
        "executed": report.executed,
        "cached": report.cached,
        "duration_s": round(report.duration_s, 3),
        "store": str(store_path),
        "aggregate": aggregate,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\n{report.executed} executed, {report.cached} cached "
          f"in {report.duration_s:.1f}s; records -> {store_path}, summary -> {args.output}")
    return 0


# ----------------------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server import DEFAULT_MAX_ROWS, SynthesisHTTPServer
    from repro.server.pool import WorkerPool, default_processes, fork_available

    if not args.root.is_dir():
        raise ValueError(f"--root {args.root} is not a directory")
    max_rows = DEFAULT_MAX_ROWS if args.max_rows is None else args.max_rows
    processes = default_processes() if args.processes is None else args.processes
    if processes < 1:
        raise ValueError(f"--processes must be >= 1; got {processes}")
    if processes > 1 and not fork_available():
        raise ValueError(
            "--processes > 1 requires os.fork (POSIX); use --processes 1"
        )

    def make_service() -> SynthesisService:
        return SynthesisService(
            artifact_root=args.root,
            cache_size=args.cache_size,
            chunk_size=args.chunk_size,
        )

    service = make_service()
    refs = service.available()

    def banner(port: int) -> None:
        print(f"serving {len(refs)} artifact(s) from {args.root} "
              f"on http://{args.host}:{port} "
              f"({processes} process(es) x {args.workers} workers, "
              f"max {max_rows} rows/request)")
        for ref in refs:
            print(f"  /v1/models/{ref}")

    if processes == 1:
        try:
            server = SynthesisHTTPServer(
                (args.host, args.port), service, workers=args.workers,
                max_rows=max_rows, max_connections=args.max_connections,
            )
        except OSError as error:
            # EADDRINUSE / EACCES and friends: the CLI's error envelope, not a
            # traceback.
            raise ValueError(
                f"cannot bind {args.host}:{args.port}: {error.strerror or error}"
            ) from error
        banner(server.port)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("shutting down")
        finally:
            server.server_close()
        return 0

    pool = WorkerPool(
        (args.host, args.port),
        make_service,
        processes,
        server_kwargs={
            "workers": args.workers,
            "max_rows": max_rows,
            "max_connections": args.max_connections,
        },
    )
    try:
        pool.start()
    except OSError as error:
        raise ValueError(
            f"cannot bind {args.host}:{args.port}: {error.strerror or error}"
        ) from error
    banner(pool.port)
    # The supervisor parks here; SIGTERM/^C fall through to the graceful
    # stop, which drains every worker before the listening socket closes.
    stop_requested = threading.Event()
    previous = [
        signal.signal(signal.SIGTERM, lambda *_: stop_requested.set()),
        signal.signal(signal.SIGINT, lambda *_: stop_requested.set()),
    ]
    try:
        stop_requested.wait()
        print("shutting down")
    finally:
        signal.signal(signal.SIGTERM, previous[0])
        signal.signal(signal.SIGINT, previous[1])
        pool.stop(graceful=True)
    return 0


# ----------------------------------------------------------------------------------
# obs
# ----------------------------------------------------------------------------------


def _print_registry_table(snapshot: dict) -> int:
    """Human-oriented rendering of a registry snapshot (one family per block)."""
    if not snapshot:
        print("(no metrics recorded)")
        return 0
    for name in sorted(snapshot):
        family = snapshot[name]
        print(f"{name} ({family['type']})")
        if not family["series"]:
            print("  (no samples)")
            continue
        for entry in family["series"]:
            labels = entry.get("labels") or {}
            label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-"
            if family["type"] == "histogram":
                count = entry["count"]
                mean = entry["sum"] / count if count else 0.0
                print(f"  {label_text:<44} count={count} "
                      f"sum={entry['sum']:.6g}s mean={mean:.6g}s")
            else:
                print(f"  {label_text:<44} {float(entry['value']):g}")
    return 0


_SPAN_CORE_FIELDS = frozenset(
    {"ts", "event", "name", "trace_id", "span_id", "parent_id", "duration_ms", "status"}
)


def _render_trace(path: Path) -> int:
    """Reassemble a span JSONL stream into indented per-trace timing trees."""
    spans = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # a torn line from a live writer; skip it
            if record.get("event") == "span":
                spans.append(record)
    if not spans:
        print(f"(no spans in {path})")
        return 0

    by_trace: dict = {}
    for record in spans:
        by_trace.setdefault(record.get("trace_id"), []).append(record)

    def render(node, children, depth):
        annotations = " ".join(
            f"{key}={value}" for key, value in sorted(node.items())
            if key not in _SPAN_CORE_FIELDS
        )
        status = node.get("status", "ok")
        parts = [f"{node.get('name')}", f"{node.get('duration_ms', 0.0):.3f} ms"]
        if status != "ok":
            parts.append(f"[{status}]")
        if annotations:
            parts.append(annotations)
        print("  " * (depth + 1) + "  ".join(parts))
        for child in children.get(node.get("span_id"), ()):
            render(child, children, depth + 1)

    for trace_id, members in by_trace.items():
        span_ids = {member.get("span_id") for member in members}
        children: dict = {}
        roots = []
        for member in members:
            parent = member.get("parent_id")
            if parent in span_ids:
                children.setdefault(parent, []).append(member)
            else:
                roots.append(member)
        print(f"trace {trace_id} ({len(members)} span(s))")
        for root in roots:
            render(root, children, 0)
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.trace is not None:
        return _render_trace(args.trace)
    from urllib.request import urlopen

    url = args.url.rstrip("/") + "/metrics"
    if args.format == "prometheus":
        url += "?format=prometheus"
    with urlopen(url) as response:
        body = response.read().decode("utf-8")
    if args.format == "prometheus":
        print(body, end="")
        return 0
    payload = json.loads(body)
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    return _print_registry_table(payload.get("registry", {}))


# ----------------------------------------------------------------------------------


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "train": _cmd_train,
        "sample": _cmd_sample,
        "evaluate": _cmd_evaluate,
        "inspect": _cmd_inspect,
        "bench": _cmd_bench,
        "serve": _cmd_serve,
        "obs": _cmd_obs,
    }[args.command]
    try:
        return handler(args)
    except (ArtifactError, KeyError, ValueError, RuntimeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
