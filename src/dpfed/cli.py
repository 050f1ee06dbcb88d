"""Command line front end for the whole pipeline.

Subcommands: ``synth`` and ``inspect`` for corpora, ``warm-start`` for
public pretraining, ``coordinator`` and ``worker`` for a real TCP
session, ``simulate`` for the same session in one process, and ``eval``
for accuracy reports and the speaker gap probe.

Every training or synthesis command takes an explicit --seed; there is
no ambient randomness. Each setting is declared once in ``SETTINGS``
with its config key, argparse dest, parser and default. A value from a
flag, from a flat key=value config file or from the default goes
through the same parser; a flag beats the file, the file beats the
default.

Exit codes: 0 on success. An error exits with the code its class in
``dpfed.errors`` names, and a session that ended in an ABORT exits by
``errors.session_exit_code``.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .data import (
    OutlierSpec,
    SynthSpec,
    filter_speakers,
    read_dataset,
    synth_generate,
    write_dataset,
)
from .dpsgd import DpSgdConfig, warm_start
from .errors import DpFedError, InvalidValue, session_exit_code
from .evaluation import accuracy, cross_evaluate, membership_gap
from .federation import (
    Coordinator,
    SessionConfig,
    WorkerSpec,
    inproc_session,
    worker_run,
    write_transcript,
)
from .network import Network, NetworkDims, init_network
from .privacy import PrivacyParams
from .rng import RandomSource
from .wire import abort_name

EXIT_OK = 0


def _as_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _as_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _as_seconds(text: str) -> float:
    value = _as_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive number of seconds, got {text!r}")
    return value


def _as_addr(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(f"address must be host:port, got {text!r}")
    number = _as_int(port)
    if not 0 <= number <= 65535:
        raise argparse.ArgumentTypeError(f"port must lie in 0-65535, got {number}")
    return host, number


class Setting(NamedTuple):
    dest: str  # argparse dest of every flag for the setting
    parse: Callable[[str], object]  # for flags, file values and the default alike
    default: str | None  # None: the setting has no default


SETTINGS = {
    "dp.epsilon_step": Setting("epsilon_step", _as_float, "100"),
    "dp.delta_step": Setting("delta_step", _as_float, "1e-6"),
    "dp.clip": Setting("clip", _as_float, "1"),
    "dp.noise_override": Setting("noise_override", _as_float, None),
    "train.lr": Setting("lr", _as_float, "1e-4"),
    "train.batch": Setting("batch", _as_int, "4"),
    "train.epochs": Setting("epochs", _as_int, "51"),
    "fed.addr": Setting("addr", _as_addr, "127.0.0.1:0"),
    "fed.workers": Setting("workers", _as_int, None),
    "fed.steps": Setting("steps", _as_int, None),
    "fed.worker_id": Setting("worker_id", _as_int, None),
    "model.input_dim": Setting("input_dim", _as_int, None),
    "model.hidden": Setting("hidden", _as_int, "16"),
    "model.classes": Setting("classes", _as_int, None),
    "budget.eps": Setting("budget_eps", _as_float, None),
    "budget.delta": Setting("budget_delta", _as_float, None),
    "data.path": Setting("data", str, None),
    "seed": Setting("seed", _as_int, None),
}

# synthesis recipe keys; SynthSpec holds their defaults
SYNTH_KEYS = {
    "feature_dim": _as_int,
    "num_classes": _as_int,
    "n_speakers": _as_int,
    "sequences_per_speaker": _as_int,
    "frames_per_sequence": _as_int,
    "speaker_offset_scale": _as_float,
    "noise_scale": _as_float,
    "outlier.speaker": _as_int,
    "outlier.multiplier": _as_float,
}


def _read_kv(path: str, parsers: dict[str, Callable[[str], object]]) -> dict[str, object]:
    """Parse a flat key=value file; an unknown key or a bad value is a usage error."""
    values: dict[str, object] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidValue(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise InvalidValue(f"{path}:{lineno}: expected key=value, got {line!r}")
        key = key.strip()
        if key not in parsers:
            raise InvalidValue(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = parsers[key](value.strip())
        except argparse.ArgumentTypeError as exc:
            raise InvalidValue(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def _settings(ns, path: str | None, *required: str):
    """Fill every setting in ``ns`` that no flag gave from the config file
    at ``path``, else from its default. A ``required`` setting has to come
    from a flag or the file."""
    values = _read_kv(path, {key: s.parse for key, s in SETTINGS.items()}) if path else {}
    for key, (dest, parse, default) in SETTINGS.items():
        if getattr(ns, dest, None) is not None:
            continue
        if key in values:
            setattr(ns, dest, values[key])
        elif key in required:
            raise InvalidValue(f"missing required setting {key} (flag or config)")
        else:
            setattr(ns, dest, None if default is None else parse(default))
    return ns


def _dp_config(ns) -> DpSgdConfig:
    return DpSgdConfig(
        clip_bound=ns.clip,
        step_params=PrivacyParams(ns.epsilon_step, ns.delta_step),
        learning_rate=ns.lr,
        batch_size=ns.batch,
        noise_override=ns.noise_override,
    )


def _start_model(args, input_dim: int | None, classes: int | None, seed: int | None) -> dict:
    """The session's start model: the --init-model file, else a seeded init."""
    if args.init_model:
        start = Network.load(args.init_model)
        return {"dims": start.dims, "init_parameters": start.flatten()}
    return {"dims": NetworkDims(input_dim, args.hidden, classes), "init_seed": seed}


def _print_summary(summary) -> None:
    status = "clean" if summary.clean else f"aborted: {abort_name(summary.aborted)}"
    print(f"steps completed  {summary.steps_completed}")
    print(f"status           {status}")
    for wid in sorted(summary.per_worker_spent):
        spent = summary.per_worker_spent[wid]
        print(f"worker {wid} spent   eps={spent.epsilon:g} delta={spent.delta:g}")


def cmd_synth(args) -> int:
    _settings(args, None, "seed")
    values = _read_kv(args.spec, SYNTH_KEYS) if args.spec else {}
    speaker, multiplier = values.pop("outlier.speaker", None), values.pop("outlier.multiplier", None)
    if (speaker is None) != (multiplier is None):
        raise InvalidValue("outlier.speaker and outlier.multiplier go together")
    outlier = None if speaker is None else OutlierSpec(speaker, multiplier)
    spec = SynthSpec(**values, outlier=outlier)
    dataset = synth_generate(spec, RandomSource(args.seed))
    write_dataset(dataset, args.out)
    print(f"wrote {args.out}")
    print(f"speakers   {spec.n_speakers}")
    print(f"sequences  {dataset.n_sequences}")
    print(f"frames     {dataset.n_frames}")
    if outlier is not None:
        print(f"outlier    speaker {outlier.speaker_index} offset x{outlier.offset_multiplier:g}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    dataset = read_dataset(args.data)
    print(f"feature_dim  {dataset.feature_dim}")
    print(f"classes      {dataset.num_classes}")
    print(f"sequences    {dataset.n_sequences}")
    print(f"frames       {dataset.n_frames}")
    counts = {spk: [0, 0] for spk in dataset.speaker_ids}  # sequences, frames
    for s in dataset.sequences:
        counts[s.speaker_id][0] += 1
        counts[s.speaker_id][1] += s.n_frames
    for spk, (n_seqs, frames) in counts.items():
        print(f"speaker {spk:>4}  {n_seqs} sequences, {frames} frames")
    return EXIT_OK


def cmd_warm_start(args) -> int:
    _settings(args, args.config, "seed", "data.path")
    dataset = read_dataset(args.data)
    if dataset.n_sequences == 0:
        raise InvalidValue("dataset has no sequences to train on")
    root = RandomSource(args.seed)
    if args.init_model:
        net = Network.load(args.init_model)
    else:
        dims = NetworkDims(
            input_dim=dataset.feature_dim if args.input_dim is None else args.input_dim,
            hidden_dim=args.hidden,
            output_dim=dataset.num_classes if args.classes is None else args.classes,
        )
        net = init_network(dims, root.derive("init"))
    trained = warm_start(net, dataset.sequences, args.epochs, args.lr, args.batch, root.derive("warm"))
    trained.save(args.out)
    print(f"wrote {args.out}")
    print(f"epochs     {args.epochs}")
    print(f"parameters {trained.parameter_count}")
    return EXIT_OK


def cmd_coordinator(args) -> int:
    seeded = () if args.init_model else ("seed", "model.input_dim", "model.classes")
    _settings(args, args.config, "fed.workers", "fed.steps", *seeded)
    host, port = args.addr
    session = SessionConfig(
        n_workers=args.workers,
        total_steps=args.steps,
        learning_rate=args.lr,
        host=host,
        port=port,
        timeout=args.timeout,
        **_start_model(args, args.input_dim, args.classes, args.seed),
    )
    coordinator = Coordinator(session)
    bound_host, bound_port = coordinator.bind()
    print(f"listening on {bound_host}:{bound_port}", flush=True)
    summary = coordinator.run()
    if args.transcript:
        write_transcript(coordinator.transcript, args.transcript)
        print(f"wrote {args.transcript}")
    _print_summary(summary)
    return session_exit_code(summary.aborted)


def cmd_worker(args) -> int:
    _settings(
        args, args.config,
        "seed", "fed.addr", "data.path", "fed.worker_id", "budget.eps", "budget.delta",
    )
    spec = WorkerSpec(
        worker_id=args.worker_id,
        dp_config=_dp_config(args),
        dataset=read_dataset(args.data),
        budget=PrivacyParams(args.budget_eps, args.budget_delta),
        seed=args.seed,
    )
    result = worker_run(args.addr, spec, timeout=args.timeout)
    if args.out:
        result.network.save(args.out)
        print(f"wrote {args.out}")
    if args.ledger:
        Path(args.ledger).write_text(result.ledger.report() + "\n")
        print(f"wrote {args.ledger}")
    status = "clean" if result.clean else f"aborted: {abort_name(result.aborted)}"
    print(f"steps completed  {result.steps_completed}")
    print(f"status           {status}")
    return session_exit_code(result.aborted)


def cmd_simulate(args) -> int:
    workers = [_settings(argparse.Namespace(), path, "data.path") for path in args.workers_config]
    _settings(args, args.workers_config[0])  # --lr and --hidden fall back to the first file
    datasets = [read_dataset(w.data) for w in workers]
    feature_dims = {ds.feature_dim for ds in datasets}
    class_counts = {ds.num_classes for ds in datasets}
    if len(feature_dims) != 1 or len(class_counts) != 1:
        raise InvalidValue("worker datasets disagree on feature_dim or classes")
    root = RandomSource(args.seed)
    specs = []
    for wid, w in enumerate(workers):
        dp = _dp_config(w)
        # the default budget covers exactly the requested steps: for a step
        # count below 2**53 one rounded product equals the ledger's exact sum
        budget = PrivacyParams(
            args.steps * dp.step_params.epsilon if w.budget_eps is None else w.budget_eps,
            args.steps * dp.step_params.delta if w.budget_delta is None else w.budget_delta,
        )
        seed = root.derive_seed("worker", wid) if w.seed is None else w.seed
        specs.append(WorkerSpec(wid, dp, datasets[wid], budget, seed))
    session = SessionConfig(
        n_workers=len(specs),
        total_steps=args.steps,
        learning_rate=args.lr,
        **_start_model(args, feature_dims.pop(), class_counts.pop(), root.derive_seed("init")),
    )
    result = inproc_session(session, specs)
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        for wid in sorted(result.networks):
            result.networks[wid].save(out_dir / f"worker_{wid}.net")
            ledger_path = out_dir / f"worker_{wid}.ledger.txt"
            ledger_path.write_text(result.ledgers[wid].report() + "\n")
        write_transcript(result.transcript, out_dir / "transcript.tsv")
        print(f"wrote models, ledgers and transcript under {out_dir}")
    report = cross_evaluate(
        [(f"worker{wid}", result.networks[wid]) for wid in sorted(result.networks)],
        [(f"data{wid}", datasets[wid]) for wid in range(len(datasets))],
    )
    if args.report:
        Path(args.report).write_text(report.render_tsv())
        print(f"wrote {args.report}")
    print(report.render_text())
    _print_summary(result.summary)
    return session_exit_code(result.summary.aborted)


def cmd_eval(args) -> int:
    if (args.baseline is None) != (args.probe_speaker is None):
        raise InvalidValue("--baseline and --probe-speaker go together")
    net = Network.load(args.model)
    dataset = read_dataset(args.data)
    print(accuracy(net, dataset).render_text())
    if args.baseline is not None:
        baseline = Network.load(args.baseline)
        probe_set = filter_speakers(dataset, [args.probe_speaker])
        probe = membership_gap(net, baseline, probe_set)
        print(
            f"speaker {args.probe_speaker} gap {probe.gap_points:+.1f} points"
            f" vs baseline: {probe.verdict()}"
        )
    return EXIT_OK


def _flag(p, key: str, flag: str, help: str, **kw) -> None:
    """Add ``flag`` for the setting ``key``; ``{}`` in ``help`` shows its default."""
    dest, parse, default = SETTINGS[key]
    p.add_argument(flag, dest=dest, type=parse, help=help.format(default), **kw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpfed",
        description="Differentially private federated training of a frame classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    timeout = dict(type=_as_seconds, default=60.0, help="seconds allowed for each whole message (default %(default)s)")

    p = sub.add_parser("synth", help="generate a synthetic SENO corpus")
    p.add_argument("--spec", help="key=value synthesis recipe file")
    p.add_argument("--out", required=True, help="output dataset path")
    _flag(p, "seed", "--seed", "generator seed (required)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("inspect", help="summarize a SENO dataset file")
    p.add_argument("--data", required=True, help="dataset path")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("warm-start", help="non-private pretraining on public data")
    _flag(p, "data.path", "--data", "training dataset path")
    _flag(p, "train.epochs", "--epochs", "training epochs (default {})")
    _flag(p, "train.lr", "--lr", "learning rate (default {})")
    _flag(p, "train.batch", "--batch", "batch size (default {})")
    _flag(p, "model.hidden", "--hidden", "hidden units when initializing fresh (default {})")
    p.add_argument("--init-model", help="start from this model instead of a fresh init")
    p.add_argument("--out", required=True, help="output model path")
    _flag(p, "seed", "--seed", "training seed (required)")
    p.add_argument("--config", help="key=value config file")
    p.set_defaults(func=cmd_warm_start)

    p = sub.add_parser("coordinator", help="run the TCP session coordinator")
    _flag(p, "fed.addr", "--listen", "address to listen on (default {})", metavar="HOST:PORT")
    _flag(p, "fed.workers", "--workers", "number of workers to wait for")
    _flag(p, "fed.steps", "--steps", "federated steps to run")
    _flag(p, "train.lr", "--lr", "learning rate sent in INIT (default {})")
    p.add_argument("--init-model", help="initial model file; otherwise --seed initializes")
    _flag(p, "seed", "--seed", "init seed when no --init-model")
    _flag(p, "model.input_dim", "--input-dim", "model input dim (with --seed)")
    _flag(p, "model.hidden", "--hidden", "model hidden units (with --seed, default {})")
    _flag(p, "model.classes", "--classes", "model classes (with --seed)")
    p.add_argument("--timeout", **timeout)
    p.add_argument("--transcript", help="write the message transcript here")
    p.add_argument("--config", help="key=value config file")
    p.set_defaults(func=cmd_coordinator)

    p = sub.add_parser("worker", help="run one TCP worker")
    _flag(p, "fed.addr", "--connect", "coordinator address", metavar="HOST:PORT")
    _flag(p, "data.path", "--data", "private dataset path")
    _flag(p, "fed.worker_id", "--worker-id", "unique worker id")
    _flag(p, "budget.eps", "--budget-eps", "total epsilon budget")
    _flag(p, "budget.delta", "--budget-delta", "total delta budget")
    _flag(p, "dp.epsilon_step", "--epsilon-step", "per-release epsilon (default {})")
    _flag(p, "dp.delta_step", "--delta-step", "per-release delta (default {})")
    _flag(p, "dp.clip", "--clip", "L2 clip bound (default {})")
    _flag(p, "dp.noise_override", "--noise-override",
          "noise sigma per release; 0 adds none and spends nothing (unset: calibrated to the step)")
    _flag(p, "train.batch", "--batch", "batch size (default {})")
    p.add_argument("--out", help="write the final model here")
    p.add_argument("--ledger", help="write the ledger report here")
    p.add_argument("--timeout", **timeout)
    _flag(p, "seed", "--seed", "worker seed (required)")
    p.add_argument("--config", help="key=value config file")
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser("simulate", help="run a whole session in one process")
    p.add_argument(
        "--workers-config", nargs="+", required=True, metavar="FILE",
        help="one key=value config file per worker (needs data.path)",
    )
    _flag(p, "fed.steps", "--steps", "federated steps to run", required=True)
    _flag(p, "seed", "--seed", "session seed", required=True)
    _flag(p, "train.lr", "--lr", "learning rate (default {})")
    _flag(p, "model.hidden", "--hidden", "hidden units for a fresh init (default {})")
    p.add_argument("--init-model", help="initial model file; otherwise seeded init")
    p.add_argument("--report", help="write the accuracy table here as TSV")
    p.add_argument("--out-dir", help="write models, ledgers and transcript here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eval", help="accuracy report and speaker gap probe")
    p.add_argument("--model", required=True, help="model to evaluate")
    p.add_argument("--data", required=True, help="evaluation dataset")
    p.add_argument("--baseline", help="baseline model for the gap probe")
    p.add_argument("--probe-speaker", type=_as_int, help="speaker id for the speaker gap: did the model learn this speaker?")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DpFedError as exc:
        print(f"dpfed: {exc.label}{exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"dpfed: {exc}", file=sys.stderr)
        return DpFedError.exit_code


if __name__ == "__main__":
    sys.exit(main())
