import json

import numpy as np
import pytest

import entdis.search
from entdis.cli import build_parser, _config, main
from entdis.search import SIMULATION_TRIALS, OptimizerConfig
from entdis.serialize import canonical_json, matrix_to_json, sha256_hex
from entdis.states import Theorem2Spec, UnitarySet, bell_set, set_from_dict, set_to_dict, theorem1_set, theorem2_set


def run(args):
    return main([str(a) for a in args])


def test_gen_theorem1_writes_indices(tmp_path, capsys):
    out = tmp_path / "set.json"
    assert run(["gen", "theorem1", "--d", 4, "--output", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["type"] == "theorem1" and doc["d"] == 4
    assert len(doc["indices"]) == 5
    assert "5 states" in capsys.readouterr().err


def test_gen_theorem2_embeds_unitaries(tmp_path):
    out = tmp_path / "t2.json"
    assert run(["gen", "theorem2", "--d", 7, "--output", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["type"] == "theorem2"
    assert len(doc["unitaries"]) == 4
    assert len(doc["unitaries"][0]) == 7


def test_gen_theorem2_rejects_even_dimension(tmp_path, capsys):
    assert run(["gen", "theorem2", "--d", 8, "--output", tmp_path / "x.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_gen_theorem2_rejects_degenerate_gamma(tmp_path):
    assert run(["gen", "theorem2", "--d", 7, "--gamma", "0,1", "--output", tmp_path / "x.json"]) == 2
    assert run(["gen", "theorem2", "--d", 7, "--gamma", "0,-1", "--output", tmp_path / "x.json"]) == 2


def test_gen_bell_and_duplicates(tmp_path):
    out = tmp_path / "b.json"
    assert run(["gen", "bell", "--d", 3, "--indices", "0,0;1,0;0,1", "--output", out]) == 0
    assert len(json.loads(out.read_text())["indices"]) == 3
    assert run(["gen", "bell", "--d", 3, "--indices", "0,0;0,0", "--output", out]) == 2


def test_gen_explicit_round_trip(tmp_path):
    mats = [np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)]
    src = tmp_path / "mats.json"
    src.write_text(canonical_json([matrix_to_json(m) for m in mats]))
    out = tmp_path / "set.json"
    assert run(["gen", "explicit", "--d", 2, "--unitaries", src, "--output", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["type"] == "explicit" and len(doc["unitaries"]) == 2


IX = (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex))


@pytest.fixture
def gen_dir(tmp_path, monkeypatch):
    """tmp_path as the working directory, holding the I/X members as mats.json."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mats.json").write_text(canonical_json([matrix_to_json(m) for m in IX]))
    return tmp_path


@pytest.mark.parametrize(
    "args, want",
    [
        (["theorem1", "--d", 9], lambda: theorem1_set(9)),
        (["theorem2", "--d", 7], lambda: theorem2_set(Theorem2Spec(7))),
        (
            ["theorem2", "--d", 9, "--omega", "0,1", "--sigma", "-1"],
            lambda: theorem2_set(Theorem2Spec(9, omega=1j, sigma=-1)),
        ),
        (["bell", "--d", 3, "--indices", "0,0;1,0;0,1"], lambda: bell_set(3, [(0, 0), (1, 0), (0, 1)])),
        (["explicit", "--d", 2, "--unitaries", "mats.json"], lambda: UnitarySet(2, IX)),
    ],
)
def test_gen_file_reads_back_as_the_library_set(gen_dir, args, want):
    assert run(["gen", *args, "--output", "set.json"]) == 0
    got, expected = set_from_dict(json.loads((gen_dir / "set.json").read_text())), want()
    assert len(got) == len(expected) and got.tag == expected.tag
    assert all(np.array_equal(U, V) for U, V in zip(got.members, expected.members))


@pytest.mark.parametrize(
    "args, digest",
    [
        (["theorem1", "--d", 9], "89356e8553adc83baab1cf0fb306292f5ed5e2fc15aefee1454a0d442c453f39"),
        (["theorem2", "--d", 7], "b02be1b2cf2291f5e35093f16f3c3858e813415ac5569bf725ae925a8a92c85f"),
        (
            ["theorem2", "--d", 9, "--omega", "0,1", "--sigma", "-1"],
            "cc3fb4ee6aac8e14e2c94c4f14dde9b37e96175df4796f4af185d413457cdaf3",
        ),
        (["bell", "--d", 3, "--indices", "0,0;1,0;0,1"], "edef493163c0deaaaab1a8fabe9f1463dea5ffc12751e45b07230c9065d074fa"),
        (["explicit", "--d", 2, "--unitaries", "mats.json"], "3654388e0847fc410a1314166fcc7d41b0c92cb210aa0a9c83633821e684bfc7"),
    ],
)
def test_gen_bytes_are_pinned(gen_dir, args, digest):
    assert run(["gen", *args, "--output", "set.json"]) == 0
    assert sha256_hex((gen_dir / "set.json").read_text()) == digest


@pytest.mark.parametrize(
    "args, option",
    [
        (["theorem1", "--d", 5, "--omega", "0,1"], "--omega"),
        (["theorem1", "--d", 5, "--indices", "0,0;1,0"], "--indices"),
        (["theorem2", "--d", 7, "--indices", "0,0;1,0"], "--indices"),
        (["theorem2", "--d", 7, "--unitaries", "mats.json"], "--unitaries"),
        (["bell", "--d", 3, "--indices", "0,0;1,0", "--unitaries", "nofile"], "--unitaries"),
        (["bell", "--d", 3, "--indices", "0,0;1,0", "--gamma", "0,1"], "--gamma"),
        (["explicit", "--d", 2, "--unitaries", "mats.json", "--sigma", "-1"], "--sigma"),
        (["explicit", "--d", 2, "--unitaries", "mats.json", "--indices", "0,0;1,0"], "--indices"),
    ],
)
def test_gen_refuses_options_its_type_does_not_read(gen_dir, capsys, args, option):
    assert run(["gen", *args, "--output", "set.json"]) == 2
    assert f"gen {args[0]} does not read {option}" in capsys.readouterr().err
    assert not (gen_dir / "set.json").exists()


def test_option_defaults_are_the_library_defaults():
    parser = build_parser()
    for command in ("decide", "search", "simulate"):
        assert _config(parser.parse_args([command, "x.json"])) == OptimizerConfig()
    assert parser.parse_args(["simulate", "x.json"]).trials == SIMULATION_TRIALS
    # each search flag sets its own OptimizerConfig field
    flags = {
        "--restarts": ("restarts", 7),
        "--max-iterations": ("max_iterations", 11),
        "--tol-success": ("success_tol", 1e-9),
        "--tol-floor": ("failure_floor", 1e-4),
        "--seed": ("seed", 5),
    }
    for flag, (field, value) in flags.items():
        cfg = _config(parser.parse_args(["decide", "x.json", flag, str(value)]))
        assert cfg == OptimizerConfig(**{field: value}), flag
    argv = ["search", "x.json"]
    for flag, (_, value) in flags.items():
        argv += [flag, str(value)]
    assert _config(parser.parse_args(argv)).to_dict() == {
        "restarts": 7,
        "max_iterations": 11,
        "success_tol": 1e-9,
        "failure_floor": 1e-4,
        "seed": 5,
    }


def test_gen_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["gen", "theorem2", "--d", 9, "--output", a])
    run(["gen", "theorem2", "--d", 9, "--output", b])
    assert a.read_bytes() == b.read_bytes()


def test_decide_certified_set(tmp_path):
    sf = tmp_path / "set.json"
    run(["gen", "theorem1", "--d", 9, "--output", sf])
    rf = tmp_path / "verdict.json"
    assert run(["decide", sf, "--output", rf]) == 0
    doc = json.loads(rf.read_text())
    assert doc["one_way_indistinguishable"] is True
    assert [r["verdict"] for r in doc["reports"]] == ["indistinguishable"] * 2
    assert doc["input_sha256"]


def test_decide_distinguishable_bell_triple(tmp_path):
    sf = tmp_path / "set.json"
    run(["gen", "bell", "--d", 3, "--indices", "0,0;1,0;0,1", "--output", sf])
    rf = tmp_path / "verdict.json"
    assert run(["decide", sf, "--output", rf]) == 0
    doc = json.loads(rf.read_text())
    assert doc["reports"][0]["verdict"] == "distinguishable"
    assert doc["reports"][0]["simulated_success"] == 1.0


def test_decide_byte_deterministic(tmp_path):
    sf = tmp_path / "set.json"
    run(["gen", "theorem1", "--d", 9, "--output", sf])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["decide", sf, "--seed", 0, "--output", a]) == 0
    assert run(["decide", sf, "--seed", 0, "--output", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_decide_rejects_bad_files(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert run(["decide", empty]) == 2
    assert run(["decide", tmp_path / "missing.json"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"d": 4}')
    assert run(["decide", bad]) == 2


def test_decide_rejects_strings_and_booleans_as_numbers(tmp_path, capsys):
    sf = tmp_path / "strings.json"
    member = [[["1", 0], [0, 0]], [[0, 0], [1, 0]]]
    sf.write_text(json.dumps({"d": 2, "type": "explicit", "unitaries": [member, matrix_to_json(np.eye(2))]}))
    assert run(["decide", sf]) == 2
    assert "error: '1' is not a number" in capsys.readouterr().err
    sf.write_text(json.dumps({"d": 7, "type": "theorem2", "omega": [1, False]}))
    assert run(["decide", sf]) == 2
    assert "error: False is not a number" in capsys.readouterr().err


def test_decide_rejects_non_finite_members(tmp_path, capsys):
    sf = tmp_path / "nan.json"
    nan_member = [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    sf.write_text(json.dumps({"d": 2, "type": "explicit", "unitaries": [matrix_to_json(np.eye(2)), nan_member]}))
    assert run(["decide", sf]) == 2
    assert "member 1 is not unitary" in capsys.readouterr().err


def test_decide_rejects_non_integer_labels(tmp_path, capsys):
    sf = tmp_path / "labels.json"
    sf.write_text(json.dumps({"d": 4, "type": "generalized_bell", "indices": [[0.9, 0], [1.5, 0]]}))
    assert run(["decide", sf]) == 2
    assert "pair of integers" in capsys.readouterr().err


def test_certify_and_verify_round_trip(tmp_path):
    sf = tmp_path / "set.json"
    run(["gen", "theorem1", "--d", 9, "--output", sf])
    cf = tmp_path / "report.json"
    assert run(["certify", sf, "--output", cf]) == 0
    report = json.loads(cf.read_text())
    assert report["directions"]["A_to_B"]["found"] is True
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(canonical_json(report["directions"]["A_to_B"]["certificate"]))

    assert run(["verify", cert_file, sf]) == 0

    other = tmp_path / "other.json"
    run(["gen", "theorem1", "--d", 4, "--output", other])
    assert run(["verify", cert_file, other]) == 1

    truncated = tmp_path / "trunc.json"
    truncated.write_text(cert_file.read_text()[:40])
    assert run(["verify", truncated, sf]) == 2


def test_verify_refuses_non_integer_certificate_fields(tmp_path, capsys):
    for family, args, forge in (
        ("theorem1", [4], lambda c: dict(c, d=4.7, witness_shift=c["witness_shift"] + 0.5)),
        ("theorem2", [7], lambda c: dict(c, d=7.9, block_rows=[0.5, 1.7])),
    ):
        sf, cf = tmp_path / f"{family}.json", tmp_path / "report.json"
        run(["gen", family, "--d", *args, "--output", sf])
        assert run(["certify", sf, "--output", cf]) == 0
        cert_file = tmp_path / "forged.json"
        cert_file.write_text(canonical_json(forge(json.loads(cf.read_text())["directions"]["A_to_B"]["certificate"])))
        capsys.readouterr()
        assert run(["verify", cert_file, sf]) == 2
        assert "malformed certificate" in capsys.readouterr().err


def test_verify_refuses_string_flags_and_reals(tmp_path, capsys):
    sf, cf = tmp_path / "t2.json", tmp_path / "report.json"
    run(["gen", "theorem2", "--d", 7, "--output", sf])
    assert run(["certify", sf, "--output", cf]) == 0
    cert = json.loads(cf.read_text())["directions"]["A_to_B"]["certificate"]
    residuals = [str(r) for r in cert["forced_functional_residuals"]]
    for forged in (
        dict(cert, rank_one_reduction="false"),
        dict(cert, tolerance=str(cert["tolerance"]), forced_functional_residuals=residuals),
    ):
        cert_file = tmp_path / "forged.json"
        cert_file.write_text(canonical_json(forged))
        capsys.readouterr()
        assert run(["verify", cert_file, sf]) == 2
        assert "malformed certificate" in capsys.readouterr().err


def test_certify_inconclusive_on_distinguishable_set(tmp_path):
    sf = tmp_path / "set.json"
    run(["gen", "bell", "--d", 4, "--indices", "0,0;1,0;2,0;3,0", "--output", sf])
    cf = tmp_path / "report.json"
    assert run(["certify", sf, "--output", cf]) == 0
    report = json.loads(cf.read_text())
    assert report["directions"]["A_to_B"]["found"] is False
    assert report["directions"]["A_to_B"]["certificate"] is None


def test_certify_and_verify_block_certificates(tmp_path):
    sf = tmp_path / "t2.json"
    run(["gen", "theorem2", "--d", 7, "--output", sf])
    cf = tmp_path / "report.json"
    assert run(["certify", sf, "--output", cf]) == 0
    directions = json.loads(cf.read_text())["directions"]
    for label in ("A_to_B", "B_to_A"):
        assert directions[label]["found"] is True
        assert directions[label]["certificate"]["kind"] == "forced_block"

    cert_file = tmp_path / "cert.json"
    cert_file.write_text(canonical_json(directions["A_to_B"]["certificate"]))
    assert run(["verify", cert_file, sf]) == 0

    rf = tmp_path / "verdict.json"
    assert run(["decide", sf, "--output", rf]) == 0
    reports = {r["direction"]: r for r in json.loads(rf.read_text())["reports"]}
    for label in ("A_to_B", "B_to_A"):
        assert reports[label]["certificate"] == directions[label]["certificate"]


def test_verify_refuses_json_digest_and_three_row_certificates(tmp_path, capsys):
    # block certificates name their set by a digest of the member bytes; one
    # carrying the digest of the members' JSON text, or a 3-row block, is refused
    bell = UnitarySet(4, bell_set(4, [(m, n) for m in range(4) for n in range(4)]).members)
    sf, cf = tmp_path / "bell.json", tmp_path / "report.json"
    sf.write_text(canonical_json(set_to_dict(bell)))
    assert run(["certify", sf, "--output", cf]) == 0
    cert = json.loads(cf.read_text())["directions"]["A_to_B"]["certificate"]
    assert cert["kind"] == "forced_block"
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(canonical_json(cert))
    assert run(["verify", cert_file, sf]) == 0

    json_digest = sha256_hex(canonical_json({"d": 4, "unitaries": [matrix_to_json(U) for U in bell.members]}))
    three_rows = dict(cert, block_rows=[0, 1, 2], forced_functional_residuals=[0.0] * 8)
    for forged, reason in ((dict(cert, unitaries_sha256=json_digest), "unitaries hash mismatch"), (three_rows, "two distinct rows")):
        cert_file.write_text(canonical_json(forged))
        capsys.readouterr()
        assert run(["verify", cert_file, sf]) == 1
        assert reason in capsys.readouterr().err


def test_search_command(tmp_path):
    sf = tmp_path / "set.json"
    run(["gen", "bell", "--d", 2, "--indices", "0,0;0,1", "--output", sf])
    rf = tmp_path / "witness.json"
    assert run(["search", sf, "--restarts", 8, "--output", rf]) == 0
    doc = json.loads(rf.read_text())
    assert doc["best_residual"] < 1e-12
    assert len(doc["witness"]["alpha"]) == 2


def test_simulate_command(tmp_path):
    sf = tmp_path / "set.json"
    run(["gen", "bell", "--d", 3, "--indices", "0,0;1,0", "--output", sf])
    rf = tmp_path / "sim.json"
    assert run(["simulate", sf, "--trials", 5000, "--output", rf]) == 0
    doc = json.loads(rf.read_text())
    assert doc["success_rate"] == 1.0
    assert doc["povm_size"] == 3  # the stabilizer basis of a Lagrangian that avoids the difference (1, 0)


def test_simulate_rejects_nonpositive_trials(tmp_path, monkeypatch, capsys):
    def no_search(*args, **kwargs):
        raise AssertionError("witness search ran before --trials was checked")

    monkeypatch.setattr(entdis.search, "witness_search", no_search)
    pair = tmp_path / "pair.json"
    run(["gen", "bell", "--d", 3, "--indices", "0,0;1,0", "--output", pair])
    block = tmp_path / "t2.json"
    run(["gen", "theorem2", "--d", 7, "--output", block])
    for sf in (pair, block):
        rf = tmp_path / "sim.json"
        assert run(["simulate", sf, "--trials", 0, "--output", rf]) == 2
        assert "--trials" in capsys.readouterr().err
        assert not rf.exists()


def test_simulate_rejects_trials_past_int64(tmp_path, monkeypatch, capsys):
    def no_search(*args, **kwargs):
        raise AssertionError("witness search ran before --trials was checked")

    monkeypatch.setattr(entdis.search, "witness_search", no_search)
    sf = tmp_path / "pair.json"
    run(["gen", "bell", "--d", 3, "--indices", "0,0;1,0", "--output", sf])
    rf = tmp_path / "sim.json"
    assert run(["simulate", sf, "--trials", 2**63, "--output", rf]) == 2
    assert "--trials" in capsys.readouterr().err
    assert not rf.exists()


def test_sweep_rows_and_formats(tmp_path):
    out = tmp_path / "table.csv"
    assert run(["sweep", 4, 12, "--output", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "d,family_bound,half_dim_bound,generated_size,certified"
    rows = {int(l.split(",")[0]): l.split(",") for l in lines[1:]}
    assert rows[4][1:] == ["5", "4", "5", "true"]
    assert rows[6][1:] == ["8", "5", "6", "true"]
    assert rows[12][1:] == ["11", "8", "9", "true"]

    jout = tmp_path / "table.json"
    assert run(["sweep", 4, 6, "--format", "json", "--output", jout]) == 0
    doc = json.loads(jout.read_text())
    assert doc[0]["d"] == 4 and doc[0]["certified"] is True


def test_sweep_rejects_bad_range():
    assert run(["sweep", 3, 10]) == 2
    assert run(["sweep", 10, 4]) == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("flag, value, field", [("--seed", -1, "seed"), ("--max-iterations", -5, "max_iterations")])
def test_negative_search_options_are_refused_before_any_work(tmp_path, monkeypatch, capsys, flag, value, field):
    def no_search(*args, **kwargs):
        raise AssertionError(f"witness search ran before {flag} was checked")

    monkeypatch.setattr(entdis.search, "witness_search", no_search)
    triple = tmp_path / "triple.json"
    run(["gen", "bell", "--d", 3, "--indices", "0,0;1,0;0,1", "--output", triple])
    certified = tmp_path / "t2.json"
    run(["gen", "theorem2", "--d", 7, "--output", certified])
    capsys.readouterr()
    for command, sf in (("decide", triple), ("decide", certified), ("search", triple), ("simulate", triple)):
        rf = tmp_path / "out.json"
        assert run([command, sf, flag, value, "--output", rf]) == 2
        assert f"{field} must be >= 0, got {value}" in capsys.readouterr().err
        assert not rf.exists()


def test_one_member_set_is_refused_by_certify_and_decide(tmp_path, capsys):
    # only pairs skip the provers; a lone state still fails with exit code 2
    sf = tmp_path / "one.json"
    run(["gen", "bell", "--d", 3, "--indices", "0,0", "--output", sf])
    capsys.readouterr()
    for command in ("certify", "decide"):
        rf = tmp_path / "out.json"
        assert run([command, sf, "--output", rf]) == 2
        assert "at least two states" in capsys.readouterr().err
        assert not rf.exists()


@pytest.mark.parametrize("value", ["0", "-1.0"])
def test_nonpositive_success_tol_is_refused_before_any_work(tmp_path, monkeypatch, capsys, value):
    def no_search(*args, **kwargs):
        raise AssertionError("witness search ran before --tol-success was checked")

    monkeypatch.setattr(entdis.search, "witness_search", no_search)
    sf = tmp_path / "triple.json"
    run(["gen", "bell", "--d", 3, "--indices", "0,0;1,0;0,1", "--output", sf])
    capsys.readouterr()
    for command in ("decide", "search", "simulate"):
        rf = tmp_path / "out.json"
        assert run([command, sf, "--tol-success", value, "--output", rf]) == 2
        assert f"success_tol must be > 0, got {float(value)}" in capsys.readouterr().err
        assert not rf.exists()
