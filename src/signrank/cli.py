"""Command line front end: generate matrices, compute certificates, emit
reproducible JSON reports.

`signrank [--seed N] [--budget N] [--out PATH] [--format text|json] COMMAND
...`: the four global flags go before or after the command and its
arguments. `signrank -h` lists the commands, `signrank COMMAND -h` the
arguments and flags of one.

Exit codes: 0 success, 2 input error (an unreadable or malformed matrix,
bad flags, or an `--out` that cannot be written), 3 size-limit rejection (a
census or a generator too large), 4 a certificate was refused, by its
verifier or its budget (the VC or dual search of `analyze`, `bounds` or
`path`), and was left out (listed under `skipped`); exit 4 is read off the
report alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import census, generators
from .embed import _lower_certificates, certify, signrank_bracket
from .errors import MatrixFormatError, SizeLimitError
from .matrix import parse_sign_matrix, regularity, to_boolean, distinct_rows
from .spectral import regular_upper_bound, sigma2_trace_floor, star_norm_floor, top_singular_values
from .stabbing import low_stabbing_order
from .vc import vc_dimension

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SIZE = 3
EXIT_UNCERTIFIED = 4


def _round_floats(obj):
    """12 significant digits on every float, recursively."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _report(args, doc: dict, skipped: list[tuple[str, str]]) -> int:
    """Write the report doc in args.format, with each refused certificate of
    skipped, a (method, reason) pair, listed under `skipped`. The exit code
    is 4 exactly when one was refused."""
    if skipped:
        doc["skipped"] = [{"method": m, "reason": r} for m, r in skipped]
    doc = _round_floats(doc)
    if args.format == "json":
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        text = "".join(
            f"{k} = {json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v}\n"
            for k, v in sorted(doc.items())
        )
    _write_text(text, args.out)
    return EXIT_UNCERTIFIED if skipped else EXIT_OK


def _write_text(text: str, out_path: str | None) -> None:
    """Write text to stdout, or atomically to out_path through a temporary
    file beside it, created as `open` would create the file: mode 0666 less
    the umask. A path that cannot be written is an input error."""
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    tmp = os.path.join(directory, f".signrank-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, out_path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValueError(f"cannot write {out_path}: {exc.strerror or exc}") from exc


def _load_matrix(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise MatrixFormatError(f"cannot read {path}: {exc}") from exc
    return parse_sign_matrix(text)


def _intervals(args):
    orders = None
    if args.planted:
        plane = generators.ProjectiveSpace.build(args.p, 2)
        generators._check_intervals(plane)  # before drawing any orders
        orders = generators.planted_line_orders(plane, np.random.default_rng(args.seed))
    return generators.interval_class(args.p, orders).matrix


# Each `gen` generator: the flags it needs, the optional flags it reads, and
# its builder from the parsed arguments. A builder that draws makes its own
# generator from --seed.
_GENERATORS = {
    "signed-identity": (("n",), (), lambda a: generators.signed_identity(a.n)),
    "disjointness": (("n",), (), lambda a: generators.disjointness(a.n)),
    "projective": (("p",), ("d",), lambda a: generators.projective_incidence(
        a.p, 2 if a.d is None else a.d)),
    "hamming-ball": (("n", "d"), (), lambda a: generators.hamming_ball(a.n, a.d).matrix),
    "grid": (("n", "d"), (), lambda a: generators.grid_hyperplane(a.n, a.d)),
    "intervals": (("p",), ("planted",), _intervals),
    "line-subset": (("p",), (), lambda a: generators.line_subset_random(
        a.p, np.random.default_rng(a.seed))),
    "heavy-free": (("n", "d"), (), lambda a: generators.heavy_dominant_free_random(
        a.n, a.d, np.random.default_rng(a.seed))),
}
# The flags of `gen`, each None unless given.
_GEN_FLAGS = {"--n": dict(type=int), "--d": dict(type=int), "--p": dict(type=int),
              "--planted": dict(action="store_true", default=None,
                                help="plant random prefix line orders")}


def _cmd_gen(args) -> int:
    needed, optional, build = _GENERATORS[args.generator]
    given = [f[2:] for f in _GEN_FLAGS if getattr(args, f[2:]) is not None]
    missing = [f for f in needed if f not in given]
    unread = [f for f in given if f not in needed + optional]
    for problem, flags in (("needs", missing), ("does not read", unread)):
        if flags:
            raise ValueError(f"generator {args.generator!r} {problem} --" + ", --".join(flags))
    _write_text(build(args).to_text(), args.out)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    S = _load_matrix(args.input)
    rng = np.random.default_rng(args.seed)
    report = signrank_bracket(S, rng, hinge_alternations=args.budget)
    doc = {
        "instance": os.path.basename(args.input),
        "n_rows": S.n_rows,
        "n_cols": S.n_cols,
        "lower": [{"method": m, "value": v} for m, v in report.lower_bounds],
        "upper": [{"method": m, "value": v} for m, v in report.upper_bounds],
        "bracket": list(report.bracket),
        "welzl": {"max_sc": report.welzl_max_sc, "constant_observed": report.welzl_constant},
        "approx_sign_rank": report.welzl_max_sc + 1,
    }
    doc.update((k, v) for k, v in (("vc", report.vc), ("dual", report.dual)) if v is not None)
    return _report(args, doc, report.skipped)


def _cmd_path(args) -> int:
    """`path` lists the low-stabbing row order of the distinct rows; `approx`
    prints its summary and the sign-rank upper bound it gives."""
    Sd = distinct_rows(_load_matrix(args.input))
    ordering, method, state = low_stabbing_order(Sd, np.random.default_rng(args.seed))
    doc = {
        "instance": os.path.basename(args.input),
        "method": method,
        "max_sign_changes": ordering.max_sign_changes,
    }
    skipped = []  # the order stands without the VC dimension
    if args.command == "approx":
        doc["approx_sign_rank"] = ordering.max_sign_changes + 1
    else:
        doc.update(
            n_rows=Sd.n_rows,
            n_cols=Sd.n_cols,
            permutation=list(ordering.permutation),
            sign_changes=list(ordering.sign_changes),
        )
        vc = certify("vc", lambda: vc_dimension(Sd), skipped)
        if vc is not None:
            doc["vc"] = vc
        if state is not None:
            doc["x_log"] = [float(x) for x in state.x_log]
            if vc is not None:
                doc["constant_observed"] = ordering.constant(vc)
    return _report(args, doc, skipped)


# Report keys in `bounds` of the methods of `lower_certificates`.
_BOUNDS_KEYS = {"vc": "vc", "dual_sign_rank": "dual", "forster": "forster_identity",
                "spectral": "spectral_lower_bound"}


def _cmd_bounds(args) -> int:
    S = _load_matrix(args.input)
    B = to_boolean(S)
    info = regularity(B)
    summary = top_singular_values(S.entries.astype(float))
    vc, dual, lower, skipped = _lower_certificates(S, info.degree)
    doc = {
        "instance": os.path.basename(args.input),
        "n_rows": S.n_rows,
        "n_cols": S.n_cols,
        "is_regular": info.degree is not None,
        "degree": info.degree,
        "spectrum": {"sigma1": summary.sigma1, "sigma2": summary.sigma2},
    }
    doc.update((k, v) for k, v in (("vc", vc), ("dual", dual)) if v is not None)
    doc.update((_BOUNDS_KEYS[m], v) for m, v in lower if m != "dual_sign_rank")
    if S.n_rows == S.n_cols:
        doc["star_norm_floor"] = star_norm_floor(S)
    if info.degree is not None:
        doc["sigma2_trace_floor"] = sigma2_trace_floor(B)
        doc["regular_upper_bound"] = regular_upper_bound(S)
    return _report(args, doc, [(_BOUNDS_KEYS[m], r) for m, r in skipped])


def _cmd_enumerate(args) -> int:
    for flag, value in (("--size", args.size), ("--samples", args.samples)):
        if value is not None and not args.sample:
            raise ValueError(f"{flag} needs --sample (the exact census counts every class)")
    if args.sample:
        if args.size is None:
            raise ValueError("--sample needs --size (the class size to draw)")
        rng = np.random.default_rng(args.seed)
        samples = 2000 if args.samples is None else args.samples
        result = census.sample_census(args.n, args.d, args.size, samples, rng)
    else:
        result = census.enumerate_census(args.n, args.d)
    return _report(args, dataclasses.asdict(result), [])


# The flags every command takes, before or after its name.
_GLOBAL_FLAGS = {
    "--seed": dict(type=int, default=0, help="seed for all randomness"),
    "--budget": dict(type=int, default=400,
                     help="at most N hinge alternations per restart in analyze"),
    "--out": dict(help="output path (default stdout)"),
    "--format": dict(choices=("text", "json"), default="json"),
}
_INPUT = {"input": dict(help="matrix file in '+'/'-' format")}

# Each command: its handler, its one-line help and its own arguments.
_COMMANDS = {
    "gen": (_cmd_gen, "write a generated matrix in text format",
            {"generator": dict(choices=_GENERATORS), **_GEN_FLAGS}),
    "analyze": (_cmd_analyze, "full bound report for a matrix file", _INPUT),
    "approx": (_cmd_path, "multiplicative sign-rank approximation", _INPUT),
    "path": (_cmd_path, "low-stabbing row ordering", _INPUT),
    "bounds": (_cmd_bounds, "spectral certificates and floors only", _INPUT),
    "enumerate": (_cmd_enumerate, "census of classes by VC dimension", {
        "--n": dict(type=int, required=True),
        "--d": dict(type=int, required=True),
        "--sample": dict(action="store_true", help="Monte Carlo estimate"),
        "--samples": dict(type=int, help="classes to draw with --sample (default 2000)"),
        "--size": dict(type=int, help="class size to sample"),
    }),
}


def _parse(argv) -> argparse.Namespace:
    """Parse argv in two steps: the global flags and the command's name,
    then the rest by a parser for that command alone, so a call builds two
    parsers rather than one for every command."""
    commands = "".join(f"  {name:11s}{text}\n" for name, (_, text, _) in _COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="signrank",
        description="Sign-rank certificates, orderings, generators, and censuses",
        epilog=f"commands:\n{commands}\n'signrank COMMAND -h' lists the flags of a command",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    for flag, kwargs in _GLOBAL_FLAGS.items():
        parser.add_argument(flag, **kwargs)
    parser.add_argument("command", choices=_COMMANDS, metavar="COMMAND",
                        help="one of the commands below")
    parser.add_argument("rest", nargs=argparse.REMAINDER, metavar="ARGS", help="its arguments")
    args = parser.parse_args(argv)
    rest = vars(args).pop("rest")
    _, text, arguments = _COMMANDS[args.command]
    command = argparse.ArgumentParser(prog=f"signrank {args.command}", description=text)
    # Copies that default to SUPPRESS never clobber values given before the command.
    for flag, kwargs in _GLOBAL_FLAGS.items():
        command.add_argument(flag, **{**kwargs, "default": argparse.SUPPRESS})
    for name, kwargs in arguments.items():
        command.add_argument(name, **kwargs)
    return command.parse_args(rest, args)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except (MatrixFormatError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
