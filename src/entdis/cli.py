"""Command-line front end.

Commands: gen, decide, certify, search, simulate, sweep, verify.
Exit codes: 0 = computed (any verdict, including unknown/inconclusive),
1 = verification returned false, 2 = input error.  Reports are written with
canonical JSON (or CSV for sweep) so identical invocations produce
byte-identical output; human-readable summaries go to stderr.
decide, certify, simulate and sweep share the pipeline stages of
entdis.search (certify_direction and run_protocol).  Option defaults are
the library's (OptimizerConfig, SIMULATION_TRIALS, Theorem2Spec); each
search flag is stored under its OptimizerConfig field.  gen writes exactly
what entdis.states.set_from_dict reads: the document its arguments describe,
with the members as set_to_dict writes them.  It refuses an option that its
set type does not read.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

from .certify import certificate_from_dict, certificate_to_dict, verify_certificate_detailed
from .search import (
    MAX_TRIALS,
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
from .states import Theorem2Spec, set_from_dict, set_to_dict, theorem1_set, transpose_set
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


def _load_set(path: str):
    """The set a set file describes, and the SHA-256 of the file's text."""
    doc, digest = _load_json(path)
    return set_from_dict(doc), digest


def _parse_pair(text: str) -> list:
    """A complex number given as 're' or 're,im', as its set-file pair [re, im]."""
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise ValueError(f"expected 're' or 're,im', got {text!r}")
    return [float(parts[0]), float(parts[1]) if len(parts) == 2 else 0.0]


def _parse_indices(text: str) -> list:
    """'m,n;m,n;...' as set-file labels [[m, n], ...]; set_from_dict checks them."""
    return [[int(x) for x in chunk.split(",")] for chunk in text.split(";") if chunk.strip()]


def _add_search_options(p: argparse.ArgumentParser) -> None:
    """One flag per OptimizerConfig field, stored under the field's name."""
    cfg = OptimizerConfig()
    for flag, field, text in (
        ("--seed", "seed", "RNG seed"),
        ("--restarts", "restarts", "search restarts"),
        ("--max-iterations", "max_iterations", "Levenberg-Marquardt iterations per restart"),
        ("--tol-success", "success_tol", "witness acceptance residual"),
        ("--tol-floor", "failure_floor", "failure floor residual"),
    ):
        default, metavar = getattr(cfg, field), flag[2:].replace("-", "_").upper()
        p.add_argument(flag, dest=field, metavar=metavar, type=type(default), default=default,
                       help=f"{text} (default %(default)s)")


def _config(args) -> OptimizerConfig:
    return OptimizerConfig(**{f.name: getattr(args, f.name) for f in fields(OptimizerConfig)})


# each gen type: its document before any option is read, and the options it reads with their parsers;
# theorem2's document starts from the default phases, written as set files write them
_PHASE_DEFAULTS = {k: complex_to_pair(getattr(Theorem2Spec, k)) for k in Theorem2Spec.PHASES}
_GEN_TYPES = {
    "theorem1": ({"type": "theorem1"}, {}),
    "theorem2": ({"type": "theorem2", **_PHASE_DEFAULTS}, dict.fromkeys(Theorem2Spec.PHASES, _parse_pair)),
    "bell": ({"type": "generalized_bell"}, {"indices": _parse_indices}),
    "explicit": ({"type": "explicit"}, {"unitaries": lambda path: _load_json(path)[0]}),
}


def _gen_document(args) -> dict:
    """The set-file document that gen's arguments describe; options of other types are refused."""
    start, reads = _GEN_TYPES[args.type]
    doc = {"d": args.d, **start}
    for other, (_, options) in _GEN_TYPES.items():
        for name, parse in options.items():
            if (text := getattr(args, name)) is not None:
                if other != args.type:
                    raise ValueError(f"gen {args.type} does not read --{name}; only gen {other} does")
                doc[name] = parse(text)
    if missing := [name for name in reads if name not in doc]:
        raise ValueError(f"gen {args.type} needs --{missing[0]}")
    return doc


def _cmd_gen(args) -> int:
    doc = _gen_document(args)
    uset = set_from_dict(doc)
    # the document, with the members as set_to_dict writes them; "type" keeps naming the family
    _write_output(args.output, canonical_json({**doc, **set_to_dict(uset), "type": doc["type"]}))
    print(
        f"generated {args.type} set: d={args.d}, {len(uset)} states, "
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
    if not 1 <= args.trials <= MAX_TRIALS:
        raise ValueError(f"--trials must be between 1 and {MAX_TRIALS}, got {args.trials}")
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

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default="-")
    p = sub.add_parser("gen", parents=[output], help="generate a set file")
    p.add_argument("type", choices=list(_GEN_TYPES))
    p.add_argument("--d", type=int, required=True, help="local dimension")
    p.add_argument("--indices", help="bell: 'm,n;m,n;...'")
    for name, (re, im) in _PHASE_DEFAULTS.items():
        p.add_argument(f"--{name}", help=f"theorem2 phase, re or re,im (default {re!r},{im!r})")
    p.add_argument("--unitaries", help="explicit: JSON file with a list of matrices")
    p.set_defaults(func=_cmd_gen)

    # the set-file commands share the set file and --output; all but certify take the search options
    set_file = argparse.ArgumentParser(add_help=False, parents=[output])
    set_file.add_argument("set_file")
    searched = argparse.ArgumentParser(add_help=False, parents=[set_file])
    _add_search_options(searched)
    for name, parent, func, text in (
        ("decide", searched, _cmd_decide, "decide both directions, write verdict JSON"),
        ("certify", set_file, _cmd_certify, "run only the exact provers"),
        ("search", searched, _cmd_search, "run only the witness search"),
    ):
        sub.add_parser(name, parents=[parent], help=text).set_defaults(func=func)
    p = sub.add_parser("simulate", parents=[searched], help="search, complete a POVM and simulate the protocol")
    p.add_argument("--trials", type=int, default=SIMULATION_TRIALS,
                   help="protocol runs, drawn as one binomial count (default %(default)s, at most 2^63 - 1)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", parents=[output], help="size/bound table across dimensions")
    p.add_argument("d_min", type=int)
    p.add_argument("d_max", type=int)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
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
