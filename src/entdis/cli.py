"""Command-line front end.

Commands: gen, decide, certify, search, simulate, sweep, verify.
Exit codes: 0 = computed (any verdict, including unknown/inconclusive),
1 = verification returned false, 2 = input error.  Reports are written with
canonical JSON (or CSV for sweep) so identical invocations produce
byte-identical output; human-readable summaries go to stderr.
decide, certify, simulate and sweep share the pipeline stages of
entdis.search: certify_direction (forced-block residuals are distances
from the row space of the constraint matrix, by projection) and
run_protocol.  Option defaults are the library's (OptimizerConfig,
SIMULATION_TRIALS, Theorem2Spec), and gen writes the document of
entdis.states.set_to_dict, naming the theorem family where there is one.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .certify import certificate_from_dict, certificate_to_dict, verify_certificate_detailed
from .search import (
    SIMULATION_TRIALS,
    OptimizerConfig,
    certify_direction,
    decide,
    decision_to_dict,
    povm_identity_residual,
    run_protocol,
    witness_search,
)
from .serialize import canonical_json, complex_to_pair, sha256_hex
from .states import (
    Theorem2Spec,
    bell_set,
    set_from_dict,
    set_to_dict,
    theorem1_set,
    theorem2_set,
    transpose_set,
)
from .version import __version__

_PHASES = ("omega", "gamma", "sigma")


def _write_output(path: str, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    return json.loads(raw), sha256_hex(raw)


def _load_set(path: str):
    """The set a set file describes, and the SHA-256 of the file's text."""
    doc, digest = _load_json(path)
    return set_from_dict(doc), digest


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"expected 're' or 're,im', got {text!r}")


def _parse_indices(text: str) -> list:
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        m, n = chunk.split(",")
        out.append((int(m), int(n)))
    if not out:
        raise ValueError("no indices given")
    return out


def _add_search_options(p: argparse.ArgumentParser) -> None:
    cfg = OptimizerConfig()
    for flag, kind, default, text in (
        ("--seed", int, cfg.seed, "RNG seed"),
        ("--restarts", int, cfg.restarts, "search restarts"),
        ("--max-iterations", int, cfg.max_iterations, "Levenberg-Marquardt iterations per restart"),
        ("--tol-success", float, cfg.success_tol, "witness acceptance residual"),
        ("--tol-floor", float, cfg.failure_floor, "failure floor residual"),
    ):
        p.add_argument(flag, type=kind, default=default, help=f"{text} (default %(default)s)")


def _config(args) -> OptimizerConfig:
    return OptimizerConfig(
        restarts=args.restarts,
        max_iterations=args.max_iterations,
        success_tol=args.tol_success,
        failure_floor=args.tol_floor,
        seed=args.seed,
    )


def _cmd_gen(args) -> int:
    d, named = args.d, {}  # named: what set_to_dict cannot know, the theorem family
    if args.type == "theorem1":
        uset = theorem1_set(d)
        named = {"type": "theorem1"}
    elif args.type == "theorem2":
        given = {k: _parse_complex(v) for k in _PHASES if (v := getattr(args, k)) is not None}
        spec = Theorem2Spec(d, **given)
        uset = theorem2_set(spec)
        named = {"type": "theorem2", **{k: complex_to_pair(getattr(spec, k)) for k in _PHASES}}
    elif args.type == "bell":
        if not args.indices:
            raise ValueError("gen bell needs --indices 'm,n;m,n;...'")
        uset = bell_set(d, _parse_indices(args.indices))
    else:
        if not args.unitaries:
            raise ValueError("gen explicit needs --unitaries FILE (JSON list of matrices)")
        rows, _ = _load_json(args.unitaries)
        uset = set_from_dict({"d": d, "type": "explicit", "unitaries": rows})

    _write_output(args.output, canonical_json({**set_to_dict(uset), **named}))
    print(
        f"generated {args.type} set: d={d}, {len(uset)} states, "
        "unitarity and pairwise orthogonality verified",
        file=sys.stderr,
    )
    return 0


def _cmd_decide(args) -> int:
    uset, digest = _load_set(args.set_file)
    dec = decide(uset, _config(args))
    _write_output(args.output, canonical_json(decision_to_dict(dec, input_sha256=digest)))
    for label, verdict in (("A->B", dec.a_to_b), ("B->A", dec.b_to_a)):
        print(f"{label}: {verdict.kind}", file=sys.stderr)
    return 0


def _cmd_certify(args) -> int:
    uset, digest = _load_set(args.set_file)
    report = {"tool_version": __version__, "input_sha256": digest, "directions": {}}
    for label, target in (("A_to_B", uset), ("B_to_A", transpose_set(uset))):
        cert = certify_direction(target)
        report["directions"][label] = {
            "found": cert is not None,
            "certificate": None if cert is None else certificate_to_dict(cert),
        }
        print(f"{label}: {'certificate found' if cert else 'inconclusive'}", file=sys.stderr)
    _write_output(args.output, canonical_json(report))
    return 0


def _cmd_search(args) -> int:
    uset, digest = _load_set(args.set_file)
    cfg = _config(args)
    witness, results = witness_search(uset, cfg, collect=True)
    report = {
        "tool_version": __version__,
        "input_sha256": digest,
        "witness": witness.to_dict(),
        "best_residual": witness.residual,
        "restarts_used": len(results),
        "config": cfg.to_dict(),
    }
    _write_output(args.output, canonical_json(report))
    print(f"best residual {witness.residual:.3e} over {len(results)} restarts", file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    uset, digest = _load_set(args.set_file)
    cfg = _config(args)
    witness, _, povm, rate = run_protocol(uset, cfg, args.trials)
    report = {
        "tool_version": __version__,
        "input_sha256": digest,
        "witness_residual": witness.residual,
        "trials": args.trials,
        "config": cfg.to_dict(),
        "povm_size": None if povm is None else len(povm),
        "identity_residual": None if povm is None else povm_identity_residual(povm, uset.d),
        "success_rate": rate,
    }
    _write_output(args.output, canonical_json(report))
    if rate is None:
        print("no complete POVM found; nothing to simulate", file=sys.stderr)
    else:
        print(f"simulated success rate {rate}", file=sys.stderr)
    return 0


def _sweep_rows(d_min: int, d_max: int) -> list:
    rows = []
    for d in range(d_min, d_max + 1):
        uset = theorem1_set(d)
        rows.append({
            "d": d,
            "family_bound": 3 * (math.isqrt(d - 1) + 1) - 1,
            "half_dim_bound": -(-d // 2) + 2,
            "generated_size": len(uset),
            "certified": all(certify_direction(t) is not None for t in (uset, transpose_set(uset))),
        })
    return rows


def _cmd_sweep(args) -> int:
    if not 4 <= args.d_min <= args.d_max:
        raise ValueError(f"need 4 <= d_min <= d_max, got {args.d_min}..{args.d_max}")
    rows = _sweep_rows(args.d_min, args.d_max)
    if args.format == "json":
        _write_output(args.output, canonical_json(rows))
    else:
        # json.dumps spells each cell as in the JSON table: integers and true/false
        lines = [",".join(rows[0])] + [",".join(json.dumps(v) for v in row.values()) for row in rows]
        _write_output(args.output, "\n".join(lines) + "\n")
    return 0


def _cmd_verify(args) -> int:
    cert_doc, _ = _load_json(args.certificate_file)
    uset, _ = _load_set(args.set_file)
    ok, reason = verify_certificate_detailed(certificate_from_dict(cert_doc), uset)
    print(("verified" if ok else f"verification failed: {reason}"), file=sys.stderr)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entdis",
        description="construct maximally entangled state sets and decide/certify "
        "their one-way LOCC distinguishability",
    )
    parser.add_argument("--version", action="version", version=f"entdis {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a set file")
    p.add_argument("type", choices=["theorem1", "theorem2", "bell", "explicit"])
    p.add_argument("--d", type=int, required=True, help="local dimension")
    p.add_argument("--indices", help="bell: 'm,n;m,n;...'")
    for name in _PHASES:
        default = complex_to_pair(getattr(Theorem2Spec, name))
        p.add_argument(f"--{name}", help=f"theorem2 phase, re or re,im (default {default[0]!r},{default[1]!r})")
    p.add_argument("--unitaries", help="explicit: JSON file with a list of matrices")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("decide", help="decide both directions, write verdict JSON")
    p.add_argument("set_file")
    _add_search_options(p)
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("certify", help="run only the exact provers")
    p.add_argument("set_file")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("search", help="run only the witness search")
    p.add_argument("set_file")
    _add_search_options(p)
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("simulate", help="search, complete a POVM and simulate the protocol")
    p.add_argument("set_file")
    _add_search_options(p)
    p.add_argument("--trials", type=int, default=SIMULATION_TRIALS, help="protocol runs (default %(default)s)")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="size/bound table across dimensions")
    p.add_argument("d_min", type=int)
    p.add_argument("d_max", type=int)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="independently re-check a certificate against a set")
    p.add_argument("certificate_file")
    p.add_argument("set_file")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
