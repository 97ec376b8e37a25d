"""End-to-end command tests driven through main(argv)."""
import argparse
import doctest
import json
import shlex
from dataclasses import replace
from pathlib import Path

import pytest

from slpkit.cli import _COMMANDS, _build_parser, main
from slpkit.exactmat import ExactMatrix
from slpkit.lefschetz import LinearForm, build_matrix, full_pairs, slp_check
from slpkit.quotient import AlgebraSpec

README = Path(__file__).resolve().parents[1] / "README.md"


MAP_KEYS = {"i", "t", "rows", "cols", "rank", "maximal", "method", "ms", "notes", "peak_bits"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_volatile(payload):
    """Drop timing fields so JSON output can be compared run to run."""
    if isinstance(payload, dict):
        return {
            k: strip_volatile(v)
            for k, v in payload.items()
            if k not in ("ms", "timing")
        }
    if isinstance(payload, list):
        return [strip_volatile(v) for v in payload]
    return payload


def test_hilbert_quadratic(capsys):
    code, out, _ = run(capsys, "hilbert", "--quadratic", "4")
    assert code == 0
    assert out.strip() == "1,4,6,4,1"


def test_hilbert_general_with_csv_output(capsys, tmp_path):
    # stdout is the CSV line; --out writes JSON, as for every command
    path = tmp_path / "h.json"
    code, out, _ = run(capsys, "hilbert", "--exponents", "3,4", "--out", str(path))
    assert code == 0
    assert out == "1,2,3,3,2,1\n"
    assert json.loads(path.read_text()) == {
        "spec": {"n": 2, "exponents": [3, 4], "characteristic": 0},
        "h": [1, 2, 3, 3, 2, 1],
    }


def test_matrix_csv_golden(capsys):
    code, out, _ = run(capsys, "matrix", "--quadratic", "4", "--i", "1", "--t", "2")
    assert code == 0
    assert out == "2,2,2,0\n2,2,0,2\n2,0,2,2\n0,2,2,2\n"


def test_matrix_json_payload(capsys, tmp_path):
    path = tmp_path / "m.json"
    code, out, _ = run(
        capsys,
        "matrix", "--quadratic", "4", "--i", "1", "--t", "2", "--out", str(path),
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["i"] == 1 and payload["t"] == 2
    assert payload["matrix"]["entries"] == [[2, 2, 2, 0], [2, 2, 0, 2], [2, 0, 2, 2], [0, 2, 2, 2]]
    assert payload["spec"] == {"n": 4, "exponents": [2, 2, 2, 2], "characteristic": 0}
    assert payload["form"] == [1, 1, 1, 1]


@pytest.mark.parametrize(
    "char, matrix",
    [
        ("0", {"rows": 2, "cols": 2, "entries": [[4, 4], [1, 4]], "domain": "ZZ"}),
        ("3", {"rows": 2, "cols": 2, "entries": [[1, 1], [1, 1]], "domain": "Fp", "modulus": 3}),
    ],
    ids=["ZZ", "Fp"],
)
def test_matrix_json_keys_and_values_are_pinned(capsys, tmp_path, char, matrix):
    path = tmp_path / "m.json"
    argv = ("matrix", "--exponents", "3,3", "--form", "2,1", "--char", char, "--i", "1", "--t", "2")
    code, _, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert list(payload) == ["spec", "form", "i", "t", "matrix"]
    assert list(payload["matrix"].items()) == list(matrix.items())
    built = build_matrix(AlgebraSpec(2, (3, 3), int(char)), LinearForm((2, 1)), 1, 2).matrix
    assert eval(repr(built), {"ExactMatrix": ExactMatrix}) == built


def test_rank_block_method(capsys, tmp_path):
    path = tmp_path / "r.json"
    code, out, _ = run(
        capsys,
        "rank", "--quadratic", "6", "--i", "1", "--t", "4", "--out", str(path),
    )
    assert code == 0
    assert out.startswith("rank 6 of 6x6")
    payload = json.loads(path.read_text())
    assert set(payload) == {"spec", "form"} | MAP_KEYS
    assert payload["rank"] == 6 and payload["maximal"] is True
    assert payload["method"] == "block-recursive"
    assert payload["notes"] == []


def test_rank_dense_method(capsys):
    code, out, _ = run(
        capsys, "rank", "--exponents", "3,3", "--form", "1,1", "--i", "1", "--t", "2", "--method", "dense"
    )
    assert code == 0
    assert out.startswith("rank 2 of 2x2")


def test_slp_holds_exit_zero(capsys, tmp_path):
    path = tmp_path / "slp.json"
    code, out, _ = run(capsys, "slp", "--quadratic", "4", "--out", str(path))
    assert code == 0
    assert "SLP holds for 4 variables, characteristic 0" in out
    payload = strip_volatile(json.loads(path.read_text()))
    assert payload == {
        "spec": {"n": 4, "exponents": [2, 2, 2, 2], "characteristic": 0},
        "form": [1, 1, 1, 1],
        "characteristic": 0,
        "mode": "middle",
        "method": "auto",
        "maps": [
            {"i": 0, "t": 4, "rows": 1, "cols": 1, "rank": 1, "maximal": True, "method": "block-recursive",
             "notes": [], "peak_bits": 5},
            {"i": 1, "t": 2, "rows": 4, "cols": 4, "rank": 4, "maximal": True, "method": "block-recursive",
             "notes": [], "peak_bits": 5},
        ],
        "slp": True,
    }


def test_slp_full_mode_lists_every_failing_pair(capsys, tmp_path):
    path = tmp_path / "f.json"
    code, _, _ = run(capsys, "slp", "--quadratic", "3", "--char", "2", "--mode", "full", "--out", str(path))
    assert code == 1
    payload = json.loads(path.read_text())
    assert (payload["mode"], payload["method"]) == ("full", "dense")
    assert [(c["i"], c["t"]) for c in payload["maps"]] == list(full_pairs(3))
    assert [(c["i"], c["t"]) for c in payload["maps"] if not c["maximal"]] == [(0, 2), (0, 3), (1, 1), (1, 2)]


def test_slp_fails_exit_one(capsys, tmp_path):
    code, out, _ = run(capsys, "slp", "--quadratic", "3", "--char", "2")
    assert code == 1
    assert "SLP fails" in out
    assert out.count("FAIL") == 2
    path = tmp_path / "slp.json"
    code, _, _ = run(capsys, "slp", "--quadratic", "4", "--char", "3", "--out", str(path))
    assert code == 1
    maps = json.loads(path.read_text())["maps"]
    assert all(set(m) == MAP_KEYS for m in maps)
    assert [m["notes"] for m in maps] == [["characteristic 3 <= socle degree 4; structured path unavailable"]] * 2


def test_slp_json_is_stable_across_runs(capsys, tmp_path):
    texts = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, _, _ = run(capsys, "slp", "--quadratic", "5", "--out", str(path))
        assert code == 0
        texts.append(json.dumps(strip_volatile(json.loads(path.read_text())), sort_keys=True))
    assert texts[0] == texts[1]


def test_char_search(capsys, tmp_path):
    path = tmp_path / "cs.json"
    code, out, _ = run(
        capsys, "char-search", "--quadratic", "4", "--primes", "2..13", "--out", str(path)
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("p=2: fails at")
    assert lines[1].startswith("p=3: fails at")
    assert lines[2] == "p=5: holds"
    payload = json.loads(path.read_text())
    verdicts = {entry["p"]: entry["slp"] for entry in payload["primes"]}
    assert verdicts == {2: False, 3: False, 5: True, 7: True, 11: True, 13: True}
    assert payload["primes"][0]["failing"] == [[0, 4], [1, 2]]


def test_char_search_has_no_char_flag(capsys, tmp_path):
    # --primes names the characteristics; a --char the search would ignore
    # is a usage error, not a "characteristic" in the JSON spec
    path = tmp_path / "cs.json"
    with pytest.raises(SystemExit) as exc:
        main(["char-search", "--quadratic", "4", "--char", "5", "--primes", "2..7", "--out", str(path)])
    assert exc.value.code == 2
    assert "--char" in capsys.readouterr().err
    assert not path.exists()


def test_embed_verify(capsys, tmp_path):
    path = tmp_path / "ev.json"
    code, out, _ = run(capsys, "embed-verify", "--exponents", "3,3", "--out", str(path))
    assert code == 0
    assert "embedding into 4 square-free variables" in out
    assert "socle scalar 4 (non-zero in the field): ok" in out
    payload = json.loads(path.read_text())
    assert payload["m"] == 4
    assert payload["powers"] == [2, 2]
    assert payload["source_exponents"] == [3, 3]
    assert payload["socle_scalar"] == "4"
    assert payload["socle_nonzero"] is True and payload["socle_ok"] is True
    assert [d["j"] for d in payload["degrees"]] == [0, 1, 2, 3, 4]
    assert all(d["ok"] for d in payload["degrees"])
    assert payload["slp_direct"] is True and payload["agree"] is True


def test_embed_verify_degenerate_characteristic(capsys):
    # mod 3 the (4,2) socle scalar vanishes, so injectivity fails somewhere
    code, out, _ = run(capsys, "embed-verify", "--exponents", "4,2", "--char", "3")
    assert code == 1


def test_bench(capsys, tmp_path):
    path = tmp_path / "bench.json"
    code, out, _ = run(capsys, "bench", "--quadratic", "5", "--out", str(path))
    assert code == 0
    assert "dense and auto agree on every rank" in out
    payload = json.loads(path.read_text())
    records = payload["records"]
    assert len(records) == 6
    assert {r["route"] for r in records} == {"dense", "auto"}
    for r in records:
        assert set(r) == {"route"} | MAP_KEYS
    # dense: bit size of t!; auto: the socle scalar 5! the proof route checks for every map
    assert [(r["route"], r["peak_bits"]) for r in records] == [
        ("dense", 7), ("auto", 7), ("dense", 3), ("auto", 7), ("dense", 1), ("auto", 7)
    ]


def test_bench_route_disagreement_exits_one(capsys, monkeypatch, tmp_path):
    import slpkit.cli

    def off_by_one_auto(spec, form, mode="middle", method="auto"):
        report = slp_check(spec, form, mode, method)
        if method == "dense":
            return report
        return replace(report, maps=tuple(replace(c, rank=c.rank - 1) for c in report.maps))

    monkeypatch.setattr(slpkit.cli, "slp_check", off_by_one_auto)
    path = tmp_path / "bench.json"
    code, _, err = run(capsys, "bench", "--quadratic", "3", "--out", str(path))
    assert code == 1
    assert err == "error: routes disagree at (i=0, t=3) dense 1, auto 0; (i=1, t=1) dense 3, auto 2\n"
    # the records are written all the same, both routes' ranks in each
    records = json.loads(path.read_text())["records"]
    assert [(r["route"], r["i"], r["rank"]) for r in records] == [
        ("dense", 0, 1), ("auto", 0, 0), ("dense", 1, 3), ("auto", 1, 2)
    ]


def test_rank_block_on_a_general_spec(capsys, tmp_path):
    path = tmp_path / "rank.json"
    code, out, _ = run(
        capsys, "rank", "--exponents", "3,4", "--i", "1", "--t", "3", "--out", str(path)
    )
    assert code == 0 and "block-recursive" in out
    payload = json.loads(path.read_text())
    assert (payload["rank"], payload["method"], payload["notes"]) == (2, "block-recursive", [])
    code, out, _ = run(capsys, "bench", "--exponents", "3,3")
    assert code == 0 and "dense and auto agree on every rank" in out


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert all(line.startswith("PASS") for line in lines)
    assert "PASS: a non-middle map over Q takes the proof route" in lines
    assert "PASS: auto and dense middle ranks agree over F_5 through six variables" in lines
    assert "PASS: a deficit map ranks as the sum of its blocks" in lines


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["slp"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["slp", "--quadratic", "3", "--exponents", "2,2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


def _count_parsers(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def test_a_command_builds_its_own_parser_alone(capsys, monkeypatch):
    built = _count_parsers(monkeypatch)
    code, out, _ = run(capsys, "hilbert", "--quadratic", "3")
    assert code == 0 and out == "1,3,3,1\n"
    assert len(built) == 2
    for argv in (["--help"], ["no-such-command"]):
        built.clear()
        with pytest.raises(SystemExit):
            main(argv)
        assert len(built) == 1 + len(_COMMANDS)
    capsys.readouterr()


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_a_command_prints_the_help_and_errors_of_the_full_parser(capsys, command):
    for argv in ([command, "--help"], [command, "--no-such-flag"]):
        with pytest.raises(SystemExit) as full:
            _build_parser().parse_args(argv)
        expected = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == full.value.code
        assert capsys.readouterr() == expected
    assert expected.err.startswith("usage: slpkit")


@pytest.mark.parametrize("argv", [[], ["no-such-command"]])
def test_no_command_lists_every_command(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(command in err for command in _COMMANDS)


def test_main_reads_sys_argv_by_default(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["slpkit", "hilbert", "--quadratic", "4"])
    assert main() == 0
    assert capsys.readouterr().out == "1,4,6,4,1\n"


def test_empty_prime_ranges_exit_two(capsys):
    # a reversed range is a usage error; a range without a prime is an input error
    with pytest.raises(SystemExit) as exc:
        main(["char-search", "--quadratic", "3", "--primes", "7..2"])
    assert exc.value.code == 2
    assert "reversed prime range" in capsys.readouterr().err
    code, out, err = run(capsys, "char-search", "--quadratic", "3", "--primes", "24..28")
    assert code == 2 and out == "" and err == "error: no prime in 24..28\n"
    code, out, _ = run(capsys, "char-search", "--quadratic", "3", "--primes", "23..23")
    assert code == 0 and out == "p=23: holds\n"


def test_bench_has_no_seed_flag(capsys):
    for argv in (["bench", "--quadratic", "3", "--seed", "1"], ["selftest", "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_oversized_algebra_exits_two_before_listing_a_basis(capsys, monkeypatch):
    import slpkit.embedding
    import slpkit.lefschetz
    import slpkit.quotient

    def no_basis_listing(*args):
        pytest.fail("an oversized sweep reached graded_basis or a code table")

    with monkeypatch.context() as mp:
        mp.setattr(slpkit.lefschetz, "graded_basis", no_basis_listing)
        for module in (slpkit.quotient, slpkit.lefschetz, slpkit.embedding):
            mp.setattr(module, "_position_codes", no_basis_listing)
        # the routes that build the middle maps: dense and full
        for argv in (
            ["--quadratic", "30", "--method", "dense"],
            ["--quadratic", "30", "--mode", "full"],
        ):
            code, out, err = run(capsys, "slp", *argv)
            assert code == 2 and "limit" in err and out == "", argv
    # p <= m and a zero coefficient are outside the proof's hypotheses: the fold decides them
    for argv, maps in (
        (["--quadratic", "30", "--char", "29"], 15),
        (["--quadratic", "17", "--char", "17"], 9),
        (["--quadratic", "30", "--form", ",".join(["0"] + ["1"] * 29)], 15),
    ):
        code, out, err = run(capsys, "slp", *argv)
        assert code == 1 and err == "" and out.count("jordan") == maps, argv
        assert "FAIL i=0" in out and "SLP fails" in out
    # over Q the proof route builds only the 1x1 socle map
    code, out, err = run(capsys, "slp", "--quadratic", "30")
    assert code == 0 and err == "" and out.count("block-recursive") == 15
    assert "SLP holds for 30 variables" in out


def test_thin_map_too_long_to_list_exits_two(capsys, monkeypatch):
    import slpkit.lefschetz
    import slpkit.quotient

    def no_basis_listing(*args):
        pytest.fail("a thin map reached graded_basis or a code table")

    monkeypatch.setattr(slpkit.lefschetz, "graded_basis", no_basis_listing)
    for module in (slpkit.quotient, slpkit.lefschetz):
        monkeypatch.setattr(module, "_position_codes", no_basis_listing)
    # the (0, 14) map of quadratic(28) is 40116600x1, far below 2^28 cells, but
    # building it would list degree 14 twice: about 17 GiB
    for argv in (
        ["rank", "--quadratic", "28", "--i", "0", "--t", "14", "--method", "dense"],
        ["matrix", "--quadratic", "28", "--i", "0", "--t", "14"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "(i=0, t=14) map is 40116600x1 and lists 80233201 basis entries" in err and "limit" in err


def test_above_the_fold_bound_only_maps_too_big_to_build_exit_two(capsys, monkeypatch):
    import slpkit._jordan
    import slpkit.blockrec

    def no_fold(*args):
        pytest.fail("folded above the bound")

    monkeypatch.setattr(slpkit.blockrec, "jordan_type", no_fold)
    m = slpkit._jordan._MAX_FOLD_DEGREE
    # above the bound the maps the fold would answer are built and ranked
    code, out, err = run(capsys, "rank", "--quadratic", str(m + 1), "--char", "7", "--i", "0", "--t", "1")
    assert code == 0 and err == "" and f"rank 1 of {m + 1}x1 (maximal; modular" in out
    # over Q the same map is under the proof's hypotheses, so nothing is folded or built but the socle map
    code, out, err = run(capsys, "rank", "--quadratic", str(m + 1), "--i", "0", "--t", "1")
    assert code == 0 and err == "" and f"rank 1 of {m + 1}x1 (maximal; block-recursive" in out
    code, out, err = run(capsys, "slp", "--exponents", str(m + 2), "--char", "7")
    assert code == 0 and err == "" and out.count("modular") == m // 2 + 1
    # and a sweep too big to build is refused before any map is
    code, out, err = run(capsys, "slp", "--quadratic", str(m + 1), "--char", "7")
    assert code == 2 and out == "" and "limit" in err
    # at the bound the fold runs
    monkeypatch.undo()
    code, out, _ = run(capsys, "slp", "--exponents", str(m + 1), "--char", "7")
    assert code == 0 and out.count("jordan") == m // 2


def test_non_middle_map_above_the_fold_bound_takes_the_proof_route(capsys, monkeypatch):
    import slpkit.lefschetz

    real_build = slpkit.lefschetz.build_matrix

    def only_one_by_one(spec, form, i, t):
        if spec.dim(i) * spec.dim(i + t) > 1:
            pytest.fail(f"built the ({i}, {t}) map of {spec.n} variables")
        return real_build(spec, form, i, t)

    monkeypatch.setattr(slpkit.lefschetz, "build_matrix", only_one_by_one)
    # (10, 20) is off the middle of quadratic(1001), and its socle degree is above the fold's bound
    code, out, err = run(capsys, "rank", "--quadratic", "1001", "--i", "10", "--t", "20")
    assert code == 0 and err == "" and "(maximal; block-recursive;" in out
    spec = AlgebraSpec.quadratic(1001)
    c = slpkit.lefschetz.check_map(spec, LinearForm.ones(1001), 10, 20)
    assert (c.rank, c.maximal, c.method, c.notes) == (spec.dim(10), True, "block-recursive", ())
    assert out.startswith(f"rank {spec.dim(10)} of {spec.dim(30)}x{spec.dim(10)} ")


def test_paper_size_inputs_get_their_verdict(capsys):
    code, out, _ = run(capsys, "slp", "--quadratic", "17")
    assert code == 0 and out.count("block-recursive") == 9
    code, out, _ = run(capsys, "rank", "--quadratic", "40", "--i", "10", "--t", "20")
    assert code == 0 and out.startswith("rank 847660528 of 847660528x847660528 (maximal; block-recursive;")
    code, out, _ = run(capsys, "slp", "--exponents", ",".join(["5"] * 9), "--char", "37")
    assert code == 0 and out.count("block-recursive") == 18
    assert out.endswith("SLP holds for 9 variables, characteristic 37\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["embed-verify", "--quadratic", "17"],
        ["embed-verify", "--exponents", "18"],
        ["bench", "--quadratic", "17"],
    ],
    ids=" ".join,
)
def test_oversized_embedding_and_bench_exit_two_before_any_work(capsys, monkeypatch, argv):
    import slpkit.embedding
    import slpkit.lefschetz
    import slpkit.quotient

    def no_work(*args):
        pytest.fail(f"{' '.join(argv)} listed a basis or expanded a socle")

    for module, name in (
        (slpkit.lefschetz, "graded_basis"),
        (slpkit.quotient, "_position_codes"),
        (slpkit.lefschetz, "_position_codes"),
        (slpkit.embedding, "_position_codes"),
        (slpkit.embedding, "phi_monomial"),
    ):
        monkeypatch.setattr(module, name, no_work)
    code, out, err = run(capsys, *argv)
    assert code == 2 and "limit" in err and out == ""


def test_input_errors_exit_two(capsys):
    code, _, err = run(capsys, "rank", "--quadratic", "3", "--i", "0", "--t", "99")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "slp", "--quadratic", "3", "--char", "4")
    assert code == 2
    # a strong pseudoprime to the first 12 prime bases, and a number beyond the proven bound
    for char in ("318665857834031151167461", "3317044064679887385961981"):
        code, out, err = run(capsys, "slp", "--quadratic", "3", "--char", char)
        assert code == 2 and out == "" and err.startswith("error: ")
    code, _, err = run(capsys, "slp", "--quadratic", "3", "--form", "1,1")
    assert code == 2
    code, _, err = run(capsys, "embed-verify", "--exponents", "1,2")
    assert code == 2
    code, _, err = run(capsys, "bench", "--quadratic", "3", "--form", "1,1")
    assert code == 2 and "form coefficient count" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", "--quadratic", "3"],
        ["matrix", "--quadratic", "3", "--i", "0", "--t", "3"],
        ["rank", "--quadratic", "3", "--i", "0", "--t", "3"],
        ["slp", "--quadratic", "3"],
        ["char-search", "--quadratic", "3", "--primes", "2..5"],
        ["embed-verify", "--exponents", "3,3"],
        ["bench", "--quadratic", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_format_is_refused_before_any_work(capsys, tmp_path, argv):
    # --out always writes JSON, so no command takes --format
    path = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "csv", "--out", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not path.exists()


@pytest.mark.parametrize(
    "flags, note",
    [
        (["--char", "3"], "characteristic 3 <= socle degree 4"),
        (["--form", "1,1,1,0"], "zero coefficient in the form"),
    ],
    ids=["char", "zero"],
)
def test_rank_json_carries_the_fallback_note(capsys, tmp_path, flags, note):
    # the middle map (1, 2), and maps off the middle, which the fold answers too
    path = tmp_path / "r.json"
    for i, t in (("1", "2"), ("1", "1"), ("0", "1"), ("2", "2")):
        code, _, _ = run(capsys, "rank", "--quadratic", "4", *flags, "--i", i, "--t", t, "--out", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["method"] == "jordan", (i, t)
        assert len(payload["notes"]) == 1 and payload["notes"][0].startswith(note), (i, t)


def _readme_command_lines():
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("slpkit ")]


def test_readme_command_lines_exit_as_documented(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = _readme_command_lines()
    assert lines, "no slpkit lines in README's Command line block"
    for line in lines:
        command, _, comment = line.partition("#")
        code, _, err = run(capsys, *shlex.split(command)[1:])
        assert code == (1 if "exit 1" in comment else 0), (line, err)


def _readme_python_block():
    return README.read_text().split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_python_block_passes_as_a_doctest():
    test = doctest.DocTestParser().get_doctest(_readme_python_block(), {}, "README.md", "README.md", 0)
    assert test.examples, "no examples in README's python block"
    report = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.failed == 0, "".join(report)
