"""Verdict oracle: checks one case's report against its expectation.

The oracle reads the report the benchmark serialized (the bytes a user of
``entdis decide`` would get), so a check is a pure function of the case and
the report digest.  Certificates are re-verified independently with
``verify_certificate_detailed`` against the set of their own direction.
"""
from __future__ import annotations

import json

DIRECTIONS = ("A_to_B", "B_to_A")


def check(case, report: str, entdis) -> list[str]:
    """Problems found in one report; an empty list means the case passed."""
    doc = json.loads(report)
    if case.call == "witness_search":
        return _check_witness(case.expect, doc)
    return _check_decision(case, doc, entdis)


def _check_witness(expect, doc) -> list[str]:
    residual = doc.get("residual")
    if not isinstance(residual, float):
        return [f"witness report has no residual: {residual!r}"]
    if expect.min_residual is not None and not residual >= expect.min_residual:
        return [f"best residual {residual:.3e} below the floor {expect.min_residual:.1e}"]
    return []


def _check_decision(case, doc, entdis) -> list[str]:
    reports = {r.get("direction"): r for r in doc.get("reports", [])}
    if sorted(reports) != sorted(DIRECTIONS):
        return [f"report directions {sorted(reports)} are not {list(DIRECTIONS)}"]
    problems = []
    expect = case.expect
    for direction in DIRECTIONS:
        r = reports[direction]
        kind = r.get("verdict")
        if kind != expect.verdict:
            problems.append(f"{direction}: verdict {kind!r}, expected {expect.verdict!r}")
            continue
        if kind == "indistinguishable":
            problems += _check_certificate(case, direction, r.get("certificate"), entdis)
        elif kind == "distinguishable" and r.get("simulated_success") != 1.0:
            problems.append(f"{direction}: simulated success {r.get('simulated_success')!r}, expected 1.0")
    return problems


def _check_certificate(case, direction, cert, entdis) -> list[str]:
    if not isinstance(cert, dict):
        return [f"{direction}: indistinguishable without a certificate"]
    if cert.get("kind") != case.expect.certificate:
        return [f"{direction}: certificate kind {cert.get('kind')!r}, expected {case.expect.certificate!r}"]
    s = case.unitaries if direction == "A_to_B" else entdis.transpose_set(case.unitaries)
    ok, reason = entdis.verify_certificate_detailed(cert, s)
    return [] if ok else [f"{direction}: certificate does not re-verify: {reason}"]
