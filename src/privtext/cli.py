"""Command-line entry point.

Subcommands: perturb, matrix, stats, verify-dp, attack, sensitivity,
pipeline, ingest. Every subcommand is deterministic given its flags and
--seed, echoes its fully-resolved configuration into output metadata, and
writes output files atomically (temp file + rename). A release is private
only if its noise is secret, so perturb without --seed draws its seed from
the operating system's entropy and prints it nowhere; the other
subcommands default to seed 0, and pipeline to its config's. Text is UTF-8
in and out, whatever the locale: embeddings.text_file reads every input, a
leading byte order mark skipped, and _emit writes every output.

Exit codes: 2 config/validation error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import analysis, embeddings, pipeline, randomizers, sensitivity
from .errors import ConfigError, InvalidWordIdError, MatrixFormatError, PrivtextError
from .pipeline import SCHEMA_VERSION
from .randomizers import Mechanism, MechanismConfig
from .samplers import RngStream
from .sensitivity import build_profile

EXIT_CONFIG = 2
EXIT_IO = 3


def _attack_prior(spec: str, n_words: int) -> np.ndarray:
    """Attack prior from '--prior uniform' or '--prior zipf:<s>', s > 0."""
    if spec == "uniform":
        return np.full(n_words, 1.0 / n_words)
    kind, _, value = spec.partition(":")
    try:
        if kind == "zipf":
            return pipeline.zipf_probs(n_words, float(value))
    except (ValueError, ConfigError):
        pass
    raise ConfigError(f"--prior must be 'uniform' or 'zipf:<s>' with finite s > 0: {spec!r}")


def _emit(args, text: str) -> None:
    if args.out:
        with embeddings.atomic_file(args.out) as fh:
            fh.write(text.encode("utf-8"))
    elif hasattr(sys.stdout, "buffer"):  # UTF-8 bytes, as to --out, whatever the locale
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))
    else:  # a text stream with no bytes under it, such as an io.StringIO
        sys.stdout.write(text)


def _add_mechanism_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mechanism", default="baseline", choices=randomizers.VARIANTS)
    parser.add_argument("--epsilon", type=float, required=True)
    parser.add_argument("--sigma", type=float, default=None, help="KDE bandwidth (density)")
    parser.add_argument("--beta", type=float, default=None, help="smooth bound exponent (smooth)")
    parser.add_argument("--tau", type=float, default=None, help="truncation radius (trunc_distance)")
    parser.add_argument("--knn", type=int, default=None, help="neighbor count (trunc_knn)")
    parser.add_argument(
        "--strategy", default=None, choices=randomizers.TRUNC_STRATEGIES,
        help="trunc_distance handling of out-of-ball noise",
    )
    parser.add_argument("--mh-steps", type=int, default=None, help="MH chain length (density)")
    # accepted and ignored until perfbench's cli-density-5k stops passing it
    parser.add_argument("--mh-step", default=None, help=argparse.SUPPRESS)


def _mechanism_config(args) -> MechanismConfig:
    if args.mh_step is not None:
        print("warning: --mh-step has no effect: the density chain proposes the baseline's noise",
              file=sys.stderr)
    return MechanismConfig(
        variant=args.mechanism,
        epsilon=args.epsilon,
        sigma=args.sigma,
        beta=args.beta,
        tau=args.tau,
        k=args.knn,
        trunc_strategy=args.strategy,
        mh_steps=args.mh_steps,
    )


def _load_store(args) -> embeddings.EmbeddingStore:
    if not args.embeddings:
        raise ConfigError("--embeddings is required for this subcommand")
    if args.embeddings.endswith(".npz"):
        return embeddings.load_cache(args.embeddings)
    return embeddings.load_embeddings(args.embeddings)


def _resolved(args, config: MechanismConfig | None = None) -> dict:
    meta = {"schema_version": SCHEMA_VERSION, "seed": args.seed, "embeddings": args.embeddings}
    if config is not None:
        meta["mechanism"] = config.to_dict()
    return meta


def _report(args, payload: dict) -> None:
    _emit(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_perturb(args) -> int:
    store = _load_store(args)
    config = _mechanism_config(args)
    mech = Mechanism(store, config)
    rng = RngStream(args.seed).fork_named("cli.perturb")
    lines = []
    with embeddings.text_file(args.input, ConfigError) as source:
        for lineno, line in enumerate(source, start=1):
            tokens = line.split()
            oov = [token for token in tokens if not store.has_word(token)]
            if oov and not args.skip_oov:
                raise InvalidWordIdError(f"line {lineno}: out-of-vocabulary token {oov[0]!r}")
            lines.append(tokens)
    # one perturb_batch call per distinct word; --skip-oov tokens pass through
    ids = [store.word_id(t) for tokens in lines for t in tokens if store.has_word(t)]
    outs = iter(mech.perturb_words(rng, ids).tolist())
    _emit(args, "".join(
        " ".join(store.words[next(outs)] if store.has_word(t) else t for t in tokens) + "\n"
        for tokens in lines
    ))
    return 0


def cmd_matrix(args) -> int:
    store = _load_store(args)
    config = _mechanism_config(args)
    rng = RngStream(args.seed).fork_named("cli.matrix")
    matrix = randomizers.build_transition_matrix(store, rng, config, args.samples)
    _emit(args, randomizers.matrix_to_tsv(store, matrix))
    if not args.quiet:
        print(f"wrote {matrix.size}x{matrix.size} matrix, {args.samples} samples/row", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    store = _load_store(args)
    config = _mechanism_config(args)
    mech = Mechanism(store, config)
    rng = RngStream(args.seed).fork_named("cli.stats")
    words = [store.word_id(w) for w in args.words] if args.words else range(len(store))
    # each word draws from its own fork, so a repeated word would draw its
    # row again: draw each distinct word once
    stats = {w: analysis.deniability_stats(mech, rng, w, args.trials) for w in dict.fromkeys(words)}
    rows = [{**asdict(stats[w]), "word": store.words[w]} for w in words]
    _report(args, {"metadata": _resolved(args, config), "trials": args.trials, "stats": rows})
    return 0


def _audit_inputs(args) -> tuple:
    """verify-dp's and attack's store and --matrix TSV, whose errors name the
    file as the store's do. scipy.spatial is imported first: imported after
    the TSV's parse, its long-lived objects kept the parse's freed heap
    resident (the |W| = 1000 matrix, verify-dp and attack audit peaked at
    95.8-96.1 MiB that way, against 93.6-94.0 MiB, three pairs of runs)."""
    import scipy.spatial.distance  # noqa: F401
    store = _load_store(args)
    with embeddings.text_file(args.matrix, MatrixFormatError) as fh:
        text = fh.read()
    try:
        return store, randomizers.matrix_from_tsv(store, text)
    except (MatrixFormatError, InvalidWordIdError) as exc:
        raise type(exc)(f"{args.matrix}: {exc}") from None


def cmd_verify_dp(args) -> int:
    store, matrix = _audit_inputs(args)
    report = analysis.verify_metric_dp(matrix, store, args.epsilon)
    payload = asdict(report)
    payload["worst_triple_words"] = [store.words[i] for i in report.worst_triple]
    _report(args, {"metadata": _resolved(args), **payload})
    return 0


def cmd_attack(args) -> int:
    store, matrix = _audit_inputs(args)
    prior = _attack_prior(args.prior, len(store))
    rng = RngStream(args.seed).fork_named("cli.attack")
    acc = analysis.attack_accuracy(store, rng, matrix, prior, args.trials)
    _report(args, {"metadata": _resolved(args), "prior": args.prior, "n_trials": args.trials,
                   "accuracy": acc})
    return 0


def cmd_sensitivity(args) -> int:
    store = _load_store(args)
    profile = build_profile(store, args.beta)
    _emit(args, sensitivity.profile_tsv(store, profile))
    return 0


def cmd_pipeline(args) -> int:
    store = _load_store(args)
    try:
        with embeddings.text_file(args.config, ConfigError) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.config}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{args.config}: the pipeline config must be a JSON object")
    if args.seed is not None:
        data["seed"] = args.seed
    config = pipeline.ProtocolConfig.from_dict(data)
    report = pipeline.run_protocol(store, config)
    _emit(args, report.to_json(store))
    return 0


def cmd_ingest(args) -> int:
    if not args.out:
        raise ConfigError("ingest requires --out")
    store = _load_store(args)
    embeddings.save_cache(store, args.out)
    if not args.quiet:
        print(f"cached {len(store)} words, dim {store.dim} -> {args.out}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="privtext")
    parser.add_argument("--embeddings", help="text embedding file or .npz cache")
    parser.add_argument("--seed", type=int, default=None, help=(
        "default 0; pipeline: the config's; perturb: fresh OS entropy. A seeded perturb is not"
        " private against anyone who knows the seed: never let two releases share one"))
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("perturb", help="perturb whitespace tokens from stdin or a file")
    _add_mechanism_args(p)
    p.add_argument("--input", default=None)
    p.add_argument("--skip-oov", action="store_true")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("matrix", help="estimate the mechanism transition matrix")
    _add_mechanism_args(p)
    p.add_argument("--samples", type=int, required=True)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("stats", help="plausible-deniability statistics per word")
    _add_mechanism_args(p)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--words", nargs="*", default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify-dp", help="empirical metric-DP check on a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(func=cmd_verify_dp)

    p = sub.add_parser("attack", help="Bayes inference attack accuracy")
    p.add_argument("--matrix", required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--prior", default="uniform", help="'uniform' or 'zipf:<s>'")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("sensitivity", help="per-word local/smooth sensitivity TSV")
    p.add_argument("--beta", type=float, required=True)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("pipeline", help="run a localize-amplify-curate simulation")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("ingest", help="validate embeddings and write a binary cache")
    p.set_defaults(func=cmd_ingest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed is None and args.command != "pipeline":
        # a release's noise must be secret: perturb seeds from the OS, and never prints it
        args.seed = np.random.SeedSequence().entropy if args.command == "perturb" else 0
    try:
        return args.func(args)
    except PrivtextError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
