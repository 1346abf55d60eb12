"""Command-line front end.

Commands: gen, decide, certify, search, simulate, sweep, verify.
Exit codes: 0 = computed (any verdict, including unknown/inconclusive),
1 = verification returned false, 2 = input error.  Reports are written with
canonical JSON (or CSV for sweep) so identical invocations produce
byte-identical output; human-readable summaries go to stderr.
decide, certify, simulate and sweep share the pipeline stages of
entdis.search: certify_direction (forced-block residuals are distances
from the row space of the constraint matrix, by projection) and
run_protocol.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import sys

from .certify import certificate_from_dict, certificate_to_dict, verify_certificate_detailed
from .search import (
    OptimizerConfig,
    certify_direction,
    decide,
    decision_to_dict,
    povm_identity_residual,
    run_protocol,
    witness_search,
)
from .serialize import (
    canonical_json,
    complex_to_pair,
    matrix_from_json,
    matrix_to_json,
    sha256_hex,
)
from .states import (
    Theorem2Spec,
    UnitarySet,
    bell_set,
    set_from_dict,
    theorem1_indices,
    theorem1_set,
    theorem2_set,
    transpose_set,
)
from .version import __version__


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
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--restarts", type=int, default=64, help="search restarts (default 64)")
    p.add_argument("--max-iterations", type=int, default=2000, help="Levenberg-Marquardt iterations per restart")
    p.add_argument("--tol-success", type=float, default=1e-12, help="witness acceptance residual")
    p.add_argument("--tol-floor", type=float, default=1e-6, help="failure floor residual")


def _config(args) -> OptimizerConfig:
    return OptimizerConfig(
        restarts=args.restarts,
        max_iterations=args.max_iterations,
        success_tol=args.tol_success,
        failure_floor=args.tol_floor,
        seed=args.seed,
    )


def _cmd_gen(args) -> int:
    d = args.d
    if args.type == "theorem1":
        indices = theorem1_indices(d)
        uset = bell_set(d, indices)
        doc = {"d": d, "type": "theorem1", "indices": [[p.m, p.n] for p in indices]}
    elif args.type == "theorem2":
        spec = Theorem2Spec(
            d,
            omega=_parse_complex(args.omega),
            gamma=_parse_complex(args.gamma),
            sigma=_parse_complex(args.sigma),
        )
        uset = theorem2_set(spec)
        doc = {
            "d": d,
            "type": "theorem2",
            "omega": complex_to_pair(spec.omega),
            "gamma": complex_to_pair(spec.gamma),
            "sigma": complex_to_pair(spec.sigma),
            "unitaries": [matrix_to_json(U) for U in uset.members],
        }
    elif args.type == "bell":
        if not args.indices:
            raise ValueError("gen bell needs --indices 'm,n;m,n;...'")
        indices = _parse_indices(args.indices)
        uset = bell_set(d, indices)
        doc = {"d": d, "type": "generalized_bell", "indices": [[m, n] for m, n in indices]}
    elif args.type == "explicit":
        if not args.unitaries:
            raise ValueError("gen explicit needs --unitaries FILE (JSON list of matrices)")
        rows, _ = _load_json(args.unitaries)
        members = tuple(matrix_from_json(u, d) for u in rows)
        uset = UnitarySet(d, members)
        doc = {"d": d, "type": "explicit", "unitaries": [matrix_to_json(U) for U in uset.members]}
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown generator type {args.type!r}")

    _write_output(args.output, canonical_json(doc))
    print(
        f"generated {args.type} set: d={d}, {len(uset)} states, "
        "unitarity and pairwise orthogonality verified",
        file=sys.stderr,
    )
    return 0


def _cmd_decide(args) -> int:
    doc, digest = _load_json(args.set_file)
    uset = set_from_dict(doc)
    dec = decide(uset, _config(args))
    _write_output(args.output, canonical_json(decision_to_dict(dec, input_sha256=digest)))
    for label, verdict in (("A->B", dec.a_to_b), ("B->A", dec.b_to_a)):
        print(f"{label}: {verdict.kind}", file=sys.stderr)
    return 0


def _cmd_certify(args) -> int:
    doc, digest = _load_json(args.set_file)
    uset = set_from_dict(doc)
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
    doc, digest = _load_json(args.set_file)
    uset = set_from_dict(doc)
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
    doc, digest = _load_json(args.set_file)
    uset = set_from_dict(doc)
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
    if report["success_rate"] is None:
        print("no complete POVM found; nothing to simulate", file=sys.stderr)
    else:
        print(f"simulated success rate {report['success_rate']}", file=sys.stderr)
    return 0


def _sweep_rows(d_min: int, d_max: int) -> list:
    rows = []
    for d in range(d_min, d_max + 1):
        s = math.isqrt(d - 1) + 1
        bound = 3 * s - 1
        half = -(-d // 2) + 2
        uset = theorem1_set(d)
        found = all(certify_direction(t) is not None for t in (uset, transpose_set(uset)))
        rows.append((d, bound, half, len(uset), found))
    return rows


def _cmd_sweep(args) -> int:
    if not 4 <= args.d_min <= args.d_max:
        raise ValueError(f"need 4 <= d_min <= d_max, got {args.d_min}..{args.d_max}")
    rows = _sweep_rows(args.d_min, args.d_max)
    if args.format == "json":
        doc = [
            {
                "d": d,
                "family_bound": bound,
                "half_dim_bound": half,
                "generated_size": size,
                "certified": found,
            }
            for d, bound, half, size, found in rows
        ]
        _write_output(args.output, canonical_json(doc))
    else:
        buf = io.StringIO()
        buf.write("d,family_bound,half_dim_bound,generated_size,certified\n")
        for d, bound, half, size, found in rows:
            buf.write(f"{d},{bound},{half},{size},{str(found).lower()}\n")
        _write_output(args.output, buf.getvalue())
    return 0


def _cmd_verify(args) -> int:
    cert_doc, _ = _load_json(args.certificate_file)
    set_doc, _ = _load_json(args.set_file)
    cert = certificate_from_dict(cert_doc)
    uset = set_from_dict(set_doc)
    ok, reason = verify_certificate_detailed(cert, uset)
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
    p.add_argument("--omega", default="1", help="theorem2 phase (re or re,im)")
    p.add_argument("--gamma", default="0.7071067811865476,0.7071067811865475", help="theorem2 phase")
    p.add_argument("--sigma", default="1", help="theorem2 phase")
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
    p.add_argument("--trials", type=int, default=10_000)
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
