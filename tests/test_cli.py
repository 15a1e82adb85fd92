import contextlib
import hashlib
import io
import json
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesym import ConjectureReport, CorpusSpec, EdgeListParseError, generate, parse_edge_list, serialize_edge_list
from treesym import cli
from treesym.asym import asym_of
from treesym.autom import aut_order_of
from treesym.cli import main
from treesym.corpus import SuiteReport

from .conftest import Raised, golden_digests, int_digit_limit, outcome, recorded, run_cli, run_python, traced
from .reference import reference_build_parser, reference_corpus_spec

P3 = "3\n0 1\n0 2\n"
P3_PATH = "3\n0 1\n1 2\n"
K2 = "2\n0 1\n"
K13 = "4\n0 1\n0 2\n0 3\n"
K1 = "1\n"
C4 = "4\n0 1\n1 2\n2 3\n3 0\n"


@pytest.fixture
def tree_file(tmp_path):
    def write(text, name="t.txt"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def test_analyze_p3(tree_file):
    code, out, _ = run_cli("analyze", tree_file(P3))
    assert code == 0
    assert "a (unrooted):       2" in out
    assert "motion:             2" in out
    assert "|Aut|:              2" in out


def test_analyze_k1_json(tree_file):
    code, out, _ = run_cli("analyze", tree_file(K1), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["a"] == "2"
    assert data["motion"] == "asymmetric"
    assert data["aut_order"] == "1"


def test_analyze_k13(tree_file):
    code, out, _ = run_cli("analyze", tree_file(K13), "--json")
    data = json.loads(out)
    assert data["two_distinguishable"] is False
    assert data["group_order_bound"] is None


def test_analyze_all_roots(tree_file):
    code, out, _ = run_cli("analyze", tree_file(P3), "--json", "--all-roots")
    data = json.loads(out)
    assert data["roots"] == {"0": "2", "1": "8", "2": "8"}


def test_analyze_json_byte_stable(tree_file):
    path = tree_file(P3)
    _, first, _ = run_cli("analyze", path, "--json", "--all-roots")
    _, second, _ = run_cli("analyze", path, "--json", "--all-roots")
    assert first == second


def test_parse_error_exit_2(tree_file):
    code, _, err = run_cli("analyze", tree_file("3\n0 1\n0 1\n"))
    assert code == 2
    assert "duplicate edge" in err
    assert "line 3" in err


@pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
def test_analyze_converts_each_big_number_to_decimal_once(tree_file, monkeypatch, mode):
    # |Aut| and a(T) can run to tens of thousands of digits, and each int -> str conversion of one is quadratic
    argv = ("analyze", tree_file("9\n0 1\n0 5\n1 2\n1 3\n3 4\n5 6\n6 7\n5 8\n"), *mode)
    expected = run_cli(*argv)
    converted = []

    class Counted(int):
        def __str__(self):
            converted.append(self.name)
            return int.__repr__(self)

        def __format__(self, spec):
            converted.append(self.name)
            return format(int(self), spec)

    def counted(name, value):
        number = Counted(value)
        number.name = name
        return number

    monkeypatch.setattr("treesym.cli.aut_order_of", lambda an: counted("aut", aut_order_of(an)))
    monkeypatch.setattr("treesym.cli.asym_of", lambda an, a: counted("a", asym_of(an, a)))
    assert run_cli(*argv) == expected
    assert expected[0] == 0 and sorted(converted) == ["a", "aut"]


def test_analyze_star_with_huge_aut(tree_file):
    # |Aut| = 11999! has 43,741 digits, past Python's default int -> str limit
    n = 12000
    text = f"{n}\n" + "".join(f"0 {v}\n" for v in range(1, n))
    with int_digit_limit() as limit:
        code, out, err = run_cli("analyze", tree_file(text), "--json")
        assert (code, err) == (0, "")
        with int_digit_limit(0) as after:  # main lifts the limit for its output and puts it back
            assert after == limit
            assert json.loads(out)["aut_order"] == str(math.factorial(n - 1))


@pytest.mark.parametrize(
    "text", ["9" * 5000 + "\n0 1\n", "3\n0 1\n1 " + "2" * 5000 + "\n"], ids=["header", "edge"]
)
def test_overlong_integers_in_input_still_rejected(tree_file, text):
    code, out, err = run_cli("analyze", tree_file(text))
    assert (code, out) == (2, "")
    assert "expected vertex count" in err or "non-integer vertex id" in err


@pytest.mark.parametrize(
    "text",
    ["x" * 10**6 + "\n0 1\n", "3\n0 1\n" + "y" * 10**6 + "\n", "3\n0 1\n1 " + "z" * 10**6 + "\n"],
    ids=["header", "edge", "vertex-id"],
)
def test_overlong_bad_line_echo_is_cut(tree_file, text):
    code, out, err = run_cli("analyze", tree_file(text))
    assert (code, out) == (2, "")
    assert len(err.encode()) < 200
    assert "(cut, 1000000 characters)" in err or "(cut, 1000002 characters)" in err


@pytest.mark.parametrize(
    "text",
    ["3\n0 1\n0 " + "9" * 4300 + "\n", "3\n0 1\n" + "9" * 4300 + " 0\n", "9" * 4300 + "\n0 -1\n"],
    ids=["second-id", "first-id", "header"],
)
def test_long_number_in_range_error_is_cut(tree_file, text):
    code, out, err = run_cli("analyze", tree_file(text))
    assert (code, out) == (2, "")
    assert "vertex id out of range" in err and "... (cut, 4300 characters)" in err
    assert len(err.encode()) < 200


def test_bad_line_at_echo_cap_is_quoted_whole(tree_file):
    line = "1 " + "z" * 38
    code, _, err = run_cli("analyze", tree_file("3\n0 1\n" + line + "\n"))
    assert (code, err) == (2, f"error: line 3: non-integer vertex id in {line!r}\n")


def test_color_k2_index0(tree_file):
    code, out, _ = run_cli("color", tree_file(K2), "--index", "0")
    assert code == 0
    assert out.strip() == "10"


def test_color_k13_exit_3(tree_file):
    code, _, err = run_cli("color", tree_file(K13))
    assert code == 3
    assert "not 2-distinguishable" in err


def test_color_index_out_of_range(tree_file):
    code, _, err = run_cli("color", tree_file(K2), "--index", "1")
    assert code == 3
    assert "out of range" in err


def test_color_count_two_inequivalent(tree_file):
    code, out, _ = run_cli("color", tree_file(P3), "--count", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 and lines[0] != lines[1]


@pytest.mark.parametrize("argv, code, lines", [(("--count", "2"), 0, 2), (("--count", "3"), 3, 0), (("--index", "-1"), 3, 0)])
def test_color_range_is_checked_at_both_ends(tree_file, argv, code, lines):
    # a(P3) = 2: --count 2 ends at the last index, --count 3 one past it, and -1 is below the first
    got, out, err = run_cli("color", tree_file(P3), *argv)
    assert (got, len(out.splitlines())) == (code, lines)
    assert err == ("" if code == 0 else "index out of range [0, 2)\n")


def test_color_count_past_the_end_fails_without_a_scan():
    # a(P60) = 576460751766552576 = 2**59 - 2**29: a count one past it is refused from its last index
    # alone; a check of every index would not finish
    path60 = "60\n" + "".join(f"{i} {i + 1}\n" for i in range(59))
    r = run_python("-m", "treesym.cli", "color", "--count", "576460751766552577", "-", stdin=path60, timeout=30)
    assert r[:3] == (3, "", "index out of range [0, 576460751766552576)\n")


def test_color_rooted(tree_file):
    code, out, _ = run_cli("color", tree_file(P3), "--root", "1", "--count", "8")
    assert code == 0
    assert len(set(out.strip().splitlines())) == 8


def test_color_dot(tree_file):
    code, out, _ = run_cli("color", tree_file(K2), "--dot")
    assert code == 0
    assert "style=filled" in out and "0 -- 1;" in out


def test_verify_true_false(tree_file):
    code, out, _ = run_cli("verify", tree_file(K2), "--coloring", "10")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli("verify", tree_file(K2), "--coloring", "11")
    assert code == 4 and out.strip() == "false"
    code, out, _ = run_cli("verify", tree_file(P3_PATH), "--coloring", "010")
    assert code == 4 and out.strip() == "false"


def test_verify_malformed_bits(tree_file):
    code, _, err = run_cli("verify", tree_file(K2), "--coloring", "1x")
    assert code == 2
    code, _, err = run_cli("verify", tree_file(K2), "--coloring", "101")
    assert code == 2


def test_verify_pinned(tree_file):
    code, out, _ = run_cli("verify", tree_file(P3), "--coloring", "000", "--pin", "1")
    assert code == 0 and out.strip() == "true"


def test_oracle_p3(tree_file):
    code, out, _ = run_cli("oracle", tree_file(P3))
    data = json.loads(out)
    assert data["orbit_count"] == "2"
    assert data["distinguishing_count"] == "4"
    assert data["aut_order"] == "2"


def test_corpus_check_clean():
    code, out, _ = run_cli("corpus", "--all-trees", "6", "--check")
    assert code == 0
    assert "checks failed:    0" in out


def test_corpus_check_json():
    code, out, _ = run_cli("corpus", "--all-trees", "5", "--check", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["suite"]["ok"] is True
    assert data["conjecture"]["consistent"] is True


def test_corpus_check_text_builds_no_json_payload(monkeypatch):
    expected = run_cli("corpus", "--all-trees", "6", "--check")
    monkeypatch.setattr(SuiteReport, "to_json", lambda self: pytest.fail("text mode built the JSON payload"))
    assert run_cli("corpus", "--all-trees", "6", "--check") == expected
    assert expected[0] == 0


def test_corpus_check_names_a_failing_check_and_its_tree(monkeypatch):
    # exit 5 names the check and the tree, in both output modes
    monkeypatch.setattr("treesym.corpus.construct_of", lambda an, a: None)
    trees = [serialize_edge_list(t) for t in generate(CorpusSpec("all-trees", n=5))]
    code, out, _ = run_cli("corpus", "--all-trees", "5", "--check", "--json")
    assert code == 5
    suite = json.loads(out)["suite"]
    failed = [t for t, rec in zip(trees, suite["records"]) if rec["checks"].get("construct-verifies") == "fail"]
    assert suite["ok"] is False and suite["counts"]["checks_failed"] >= 1 and failed
    assert suite["counterexamples"] == [{"check": "construct-verifies", "tree": t} for t in failed]
    code, out, _ = run_cli("corpus", "--all-trees", "5", "--check")
    assert code == 5
    assert f"checks failed:    {suite['counts']['checks_failed']}" in out.splitlines()
    assert [line for line in out.splitlines() if line.startswith("COUNTEREXAMPLE")] == [
        f"COUNTEREXAMPLE [construct-verifies]: {t!r}" for t in failed
    ]


def test_corpus_check_names_failures_of_three_checks_in_order(monkeypatch):
    # counterexamples follow the checks' order within a tree and the trees' order across the corpus; the first
    # tree on 6 vertices has an edge center, so both of its center roots fail the rooted bound
    monkeypatch.setattr("treesym.corpus.construct_of", lambda an, a: None)
    monkeypatch.setattr("treesym.corpus.a_at_root", lambda an, a, w: 0)
    monkeypatch.setattr("treesym.corpus.GroupOrderBound.of", lambda n, aut, a: SimpleNamespace(holds=False))
    trees = [serialize_edge_list(t) for t in generate(CorpusSpec("all-trees", n=6))]
    want = [("construct-verifies", 0), ("rooted-lower-bound", 0), ("rooted-lower-bound", 0), ("group-order-bound", 0),
            ("group-order-bound", 1), ("group-order-bound", 2),
            ("construct-verifies", 3), ("rooted-lower-bound", 3), ("group-order-bound", 3)]
    code, out, _ = run_cli("corpus", "--all-trees", "6", "--check", "--json")
    assert code == 5
    suite = json.loads(out)["suite"]
    assert suite["ok"] is False and suite["counts"]["checks_failed"] == len(want)
    assert suite["counterexamples"] == [{"check": check, "tree": trees[i]} for check, i in want]
    code, out, _ = run_cli("corpus", "--all-trees", "6", "--check")
    assert code == 5
    assert f"checks failed:    {len(want)}" in out.splitlines()
    assert [line for line in out.splitlines() if line.startswith("COUNTEREXAMPLE")] == [
        f"COUNTEREXAMPLE [{check}]: {trees[i]!r}" for check, i in want
    ]


def test_corpus_check_names_an_inconsistent_conjecture(monkeypatch):
    monkeypatch.setattr("treesym.cli.conjecture_check", lambda t: ConjectureReport(False, True, False, None))
    trees = [serialize_edge_list(t) for t in generate(CorpusSpec("all-trees", n=5))]
    code, out, _ = run_cli("corpus", "--all-trees", "5", "--check", "--json")
    assert code == 5
    data = json.loads(out)
    assert data["suite"]["ok"] is True
    assert data["conjecture"] == {
        "consistent": False,
        "counterexamples": [{"check": "conjecture-consistency", "tree": t} for t in trees],
    }
    code, out, _ = run_cli("corpus", "--all-trees", "5", "--check")
    assert code == 5
    lines = out.splitlines()
    assert "conjecture consistent: False" in lines
    assert [line for line in lines if line.startswith("COUNTEREXAMPLE")] == [
        f"COUNTEREXAMPLE [conjecture]: {t!r}" for t in trees
    ]


def test_corpus_generate_json():
    code, out, _ = run_cli("corpus", "--lobed-extremal", "4")
    data = json.loads(out)
    assert code == 0
    assert data["trees"][0]["n"] == 9


def test_corpus_requires_family():
    code, _, err = run_cli("corpus")
    assert code == 2


def test_treelike_c4(tree_file):
    code, out, _ = run_cli("treelike", tree_file(C4), "--root", "0")
    data = json.loads(out)
    assert code == 0
    assert data["treelike"] is False
    assert data["forest"]["edges"] == [[0, 1], [0, 3]]
    assert data["forest"]["component_sizes"] == [3, 1]
    assert data["coloring"] is None


def test_treelike_disconnected_exits_2(tree_file):
    code, out, err = run_cli("treelike", tree_file("5\n0 1\n1 2\n2 0\n3 4\n"))
    assert code == 2
    assert out == ""
    assert err == "error: graph is disconnected\n"


STAR12 = "12\n" + "".join(f"0 {v}\n" for v in range(1, 12))
K1_10 = "11\n" + "".join(f"0 {v}\n" for v in range(1, 11))


@pytest.mark.parametrize("text", [STAR12, K1_10], ids=["star-12", "K1,10"])
def test_treelike_past_the_automorphism_limit_prints_no_coloring(tree_file, text):
    # 11! and 10! automorphisms: more than the oracle enumerates, so no coloring can be checked
    code, out, err = run_cli("treelike", tree_file(text))
    assert (code, err) == (0, "")
    data = json.loads(out)
    n = int(text.split()[0])
    assert data["coloring"] is None
    assert data["forest"]["components"] == [list(range(n))]
    assert data["witnesses"] == [1] + [None] * (n - 1)


def test_treelike_under_the_automorphism_limit_prints_its_coloring(tree_file):
    code, out, err = run_cli("treelike", tree_file("9\n0 1\n0 5\n1 2\n1 3\n3 4\n5 6\n6 7\n5 8\n"))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == "6f7f31e046a16217728b60a9aeb1f2c1cb3c67b22acc3c3d5718d3042c5c3cee"
    assert json.loads(out)["coloring"] == "010000000"


def test_verify_overlong_bad_coloring_echo_is_cut(tree_file):
    code, out, err = run_cli("verify", tree_file(K2), "--coloring", "0" * 100_000 + "x")
    assert (code, out) == (2, "")
    assert err == f"error: expected a nonempty 0/1 string, got {'0' * 40!r}... (cut, 100001 characters)\n"
    assert len(err.encode()) < 200


@pytest.mark.parametrize(
    "argv, message",
    [
        (("analyze", "TREE", "--root", "3"), "root 3 out of range 0..2"),
        (("color", "TREE", "--root", "-1"), "root -1 out of range 0..2"),
        (("verify", "TREE", "--coloring", "000", "--pin", "3"), "pin 3 out of range 0..2"),
        (("corpus", "--kary", "5", "0"), "arity must be at least 1"),
        (("corpus", "--spider", "5", "0"), "legs must be at least 1"),
        (("corpus", "--spider", "3", "3"), "need n >= legs + 1"),
        (("corpus", "--caterpillar", "0"), "n must be at least 1"),
        (("corpus", "--random-prufer", "0"), "n must be at least 1"),
        (("corpus", "--lobed-extremal", "28"), "m = 28 exceeds cap 26"),
        (("corpus", "--lobed-extremal", "40"), "m = 40 exceeds cap 26"),
        (("corpus", "--lobed-extremal", str(10**9)), "m = 1000000000 exceeds cap 26"),
    ],
    ids=["analyze-root", "color-root", "verify-pin", "kary", "spider", "spider-short", "caterpillar", "random-prufer",
         "lobed-28", "lobed-40", "lobed-1e9"],
)
def test_out_of_range_arguments_are_input_errors(tree_file, argv, message):
    argv = [tree_file(P3) if a == "TREE" else a for a in argv]
    assert run_cli(*argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("m", [28, 40, 10**9])
def test_lobed_extremal_past_the_cap_fails_before_building(capsys, m):
    run_cli("corpus", "--all-trees", "1")  # build the shared parser outside the traced call
    code, peak = traced(lambda: main(["corpus", "--lobed-extremal", str(m)]))
    assert (code, *capsys.readouterr()) == (2, "", f"error: m = {m} exceeds cap 26\n")
    assert peak < 1_000_000  # m = 28 would build 229,377 vertices


def test_lobed_extremal_at_the_cap_is_emitted():
    code, out, err = run_cli("corpus", "--lobed-extremal", "26")
    assert (code, err) == (0, "")
    assert [t["n"] for t in json.loads(out)["trees"]] == [13 * 2**13 + 1]


@pytest.mark.parametrize(
    "argv, edges",
    [
        (("--caterpillar", "6"), [[0, 1], [1, 2], [2, 3], [3, 4], [3, 5]]),
        (("--kary", "7", "2"), [[0, 1], [0, 2], [1, 3], [1, 4], [2, 5], [2, 6]]),
        (("--spider", "7", "3"), [[0, 1], [0, 3], [0, 5], [1, 2], [3, 4], [5, 6]]),
    ],
    ids=["caterpillar", "kary", "spider"],
)
def test_corpus_family_flags(argv, edges):
    code, out, err = run_cli("corpus", *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["trees"] == [{"n": len(edges) + 1, "edges": edges}]


def test_stdin_input():
    code, out, _ = run_cli("analyze", "-", "--json", stdin=P3)
    assert code == 0
    assert json.loads(out)["a"] == "2"


@pytest.mark.parametrize(
    "argv",
    [("color", "TREE", "--count", "-5"), ("corpus", "--random-prufer", "10", "--count", "-3")],
    ids=["color", "corpus"],
)
def test_negative_count_is_an_input_error(tree_file, argv):
    argv = [tree_file(P3) if a == "TREE" else a for a in argv]
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert "--count must be non-negative" in err


def test_zero_count_is_empty(tree_file):
    code, out, _ = run_cli("color", tree_file(P3), "--count", "0")
    assert code == 0 and out == ""
    code, out, _ = run_cli("corpus", "--random-prufer", "10", "--count", "0")
    assert code == 0 and json.loads(out)["trees"] == []


def test_in_process_calls_share_one_parser(tree_file, monkeypatch):
    from treesym import cli

    path4 = tree_file("4\n0 1\n1 2\n2 3\n")
    calls = [
        ("analyze", path4, "--json"),
        ("corpus", "--bogus"),
        ("--help",),
        ("color", path4, "--count", "3"),
        # pinned at an end, "0000" distinguishes; unpinned the reversal fixes it
        ("verify", path4, "--coloring", "0000", "--pin", "0"),
        ("verify", path4, "--coloring", "0000"),
    ]

    cli.build_parser.cache_clear()
    shared = [run_cli(*argv) for argv in calls]
    assert cli.build_parser.cache_info().misses == 1
    with monkeypatch.context() as m:
        m.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [run_cli(*argv) for argv in calls]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0, 0, 0, 4]
    assert shared[4][1] == "true\n" and shared[5][1] == "false\n"
    assert "unrecognized arguments: --bogus" in shared[1][2]
    assert shared[2][1].startswith("usage: treesym")


def test_corpus_spec_matches_reference_on_every_family_subset():
    from treesym import cli

    good = {"all-trees": ["5"], "random-prufer": ["6"], "caterpillar": ["5"], "lobed-extremal": ["4"],
            "kary": ["7", "2"], "spider": ["7", "3"]}
    bad = {"all-trees": ["13"], "random-prufer": ["0"], "caterpillar": ["-1"], "lobed-extremal": ["28"],
           "kary": ["5", "0"], "spider": ["3", "3"]}
    families = list(good)
    errors = set()
    for values in (good, bad):
        for chosen in range(1 << len(families)):
            flags = []
            for i, family in enumerate(families):
                if chosen >> i & 1:
                    flags += [f"--{family}", *values[family]]
            for extra in ([], ["--count", "3"], ["--seed", "9"], ["--count", "2", "--seed", "4"]):
                argv = ["corpus", *flags, *extra]
                ref_args, args = reference_build_parser().parse_args(argv), cli.build_parser().parse_args(argv)
                want = outcome(lambda: generate(reference_corpus_spec(ref_args)))
                assert outcome(lambda: generate(cli._corpus_spec(args))) == want, argv
                if isinstance(want, Raised):
                    errors.add(want.message)
    assert len(errors) == 6  # no family, and each bad value (the two random families share one message)


@pytest.mark.parametrize("columns", ["80", "200", "40"])
def test_help_and_usage_errors_match_reference_parser(capsys, monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    reference = reference_build_parser()
    for argv in (["--help"], ["corpus", "--help"], ["corpus", "--all-trees"], ["corpus", "--kary", "3"],
                 ["corpus", "--lobed-extremal", "x"], ["corpus", "--spider", "1", "y"], ["bogus"]):
        with pytest.raises(SystemExit) as exc:
            reference.parse_args(argv)
        want = (exc.value.code, *capsys.readouterr())
        assert run_cli(*argv) == want, argv
        assert want[1] or want[2]


@pytest.mark.parametrize(
    "text, message",
    [
        ("٣\n0 1\n1 2\n", "line 1: expected vertex count, got '٣'"),
        ("３\n0 1\n1 2\n", "line 1: expected vertex count, got '３'"),
        ("3\n0 1\n1 ٢\n", "line 3: non-integer vertex id in '1 ٢'"),
    ],
    ids=["arabic-indic-header", "fullwidth-header", "arabic-indic-id"],
)
def test_non_ascii_digits_in_input_are_rejected(text, message):
    # int() reads any Unicode digits; the edge-list format takes ASCII decimals only
    for cmd in ("analyze", "treelike"):
        assert run_cli(cmd, "-", stdin=text) == (2, "", f"error: {message}\n")


def test_non_ascii_text_with_ascii_numbers_still_parses():
    # only the numbers are checked: an em space and a no-break space are whitespace to str.split
    code, out, _ = run_cli("analyze", "-", "--json", stdin="3\n0\u20031\n1 2\u00a0\n")
    assert code == 0 and json.loads(out)["a"] == "2"


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "TREE", "--root", "١"),
        ("color", "TREE", "--index", "١"),
        ("color", "TREE", "--count", "١"),
        ("color", "TREE", "--root", "١"),
        ("verify", "TREE", "--coloring", "000", "--pin", "١"),
        ("corpus", "--all-trees", "٥"),
        ("corpus", "--kary", "5", "２"),
        ("corpus", "--random-prufer", "5", "--seed", "١"),
        ("corpus", "--random-prufer", "5", "--count", "١"),
        ("treelike", "TREE", "--root", "١"),
    ],
)
def test_non_ascii_digits_in_integer_options_are_rejected(tree_file, argv):
    argv = [tree_file(P3_PATH) if a == "TREE" else a for a in argv]
    code, out, err = run_cli(*argv)
    option = next(a for a in reversed(argv[:-1]) if a.startswith("--"))
    assert code == 2 and out == ""
    assert err.endswith(f"error: argument {option}: invalid int value: {argv[-1]!r}\n"), err
    assert argv[-1] in err and err.startswith("usage: treesym")


@pytest.mark.parametrize(
    "text, argv, message",
    [
        ("3\n0 1\n0_0 2\n", ("analyze", "-"), "error: line 3: non-integer vertex id in '0_0 2'"),
        ("3\n+0 1\n0 2\n", ("analyze", "-"), "error: line 2: non-integer vertex id in '+0 1'"),
        ("1_0\n0 1\n", ("treelike", "-"), "error: line 1: expected vertex count, got '1_0'"),
        (P3_PATH, ("analyze", "-", "--root", "0_1"), "error: argument --root: invalid int value: '0_1'"),
        ("", ("corpus", "--random-prufer", "5", "--seed", "+1"), "error: argument --seed: invalid int value: '+1'"),
        (P3_PATH, ("color", "-", "--index", "1" * 4301),
         f"error: argument --index: invalid int value: '{'1' * 40}'... (cut, 4301 characters)"),
    ],
    ids=["underscore-id", "plus-id", "underscore-header", "underscore-root", "plus-seed", "past-digit-limit"],
)
def test_numbers_are_plain_decimals(text, argv, message):
    # int() also reads "1_0" and "+1"; input and options take an optional "-" and digits only
    code, out, err = run_cli(*argv, stdin=text)
    assert (code, out) == (2, "") and err.endswith(message + "\n"), err


@pytest.fixture(params=["limit", "no-limit"])
def digit_limit(request):
    """Python's int <-> str digit limit as it is, and lifted (3.10.0-3.10.6 have none)."""
    with int_digit_limit(0 if request.param == "no-limit" else None):
        yield request.param


OPTION_TOKENS = ["0", "2", "-0", "-1", "007", "1" * 4300, "-" + "1" * 4299, "-" + "1" * 4300, "1" * 4301, "0" * 4301,
                 "-", "--1", "+1", "1_0", "0x1", "1.0", "1e3", "١", "３", "-٣", "²"]


def test_an_option_takes_exactly_the_numbers_an_edge_list_takes(tree_file, digit_limit):
    # one token rule (trees._ints) for both, whether or not Python's digit limit is lifted
    path = tree_file(P3)
    for token in OPTION_TOKENS:
        parsed = outcome(parse_edge_list, f"2\n0 {token}\n", catch=EdgeListParseError)
        as_id = not isinstance(parsed, Raised) or "non-integer vertex id" not in parsed.message
        code, out, err = run_cli("color", path, f"--index={token}")
        assert (code != 2) == as_id, (digit_limit, token[:50], code, err[-200:])
        if not as_id:
            assert out == "" and "invalid int value" in err and len(err.encode()) < 300, (token[:50], err)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("analyze", "TREE", "--root", "9" * 4300), f"root {'9' * 40}... (cut, 4300 characters) out of range 0..2"),
        (("color", "TREE", "--root", "9" * 4300), f"root {'9' * 40}... (cut, 4300 characters) out of range 0..2"),
        (("verify", "TREE", "--coloring", "000", "--pin", "9" * 4300),
         f"pin {'9' * 40}... (cut, 4300 characters) out of range 0..2"),
        (("color", "TREE", "--count", "-" + "9" * 4299),
         f"--count must be non-negative, got -{'9' * 39}... (cut, 4300 characters)"),
        (("corpus", "--random-prufer", "5", "--count", "-" + "9" * 4299),
         f"--count must be non-negative, got -{'9' * 39}... (cut, 4300 characters)"),
        (("corpus", "--lobed-extremal", "9" * 4299 + "8"), f"m = {'9' * 40}... (cut, 4300 characters) exceeds cap 26"),
        (("verify", "TREE", "--coloring", "000", "--pin", "9" * 4301),
         f"argument --pin: invalid int value: '{'9' * 40}'... (cut, 4301 characters)"),
        (("treelike", "TREE", "--root", "9" * 4301),
         f"argument --root: invalid int value: '{'9' * 40}'... (cut, 4301 characters)"),
    ],
    ids=["analyze-root", "color-root", "verify-pin", "color-count", "corpus-count", "lobed-extremal",
         "past-the-token-rule-pin", "past-the-token-rule-root"],
)
def test_long_option_values_are_quoted_cut(tree_file, monkeypatch, argv, message):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal
    argv = [tree_file(P3) if a == "TREE" else a for a in argv]
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "") and err.endswith(f"error: {message}\n"), err[-300:]
    assert len(err.encode()) <= 200, err


def test_closed_stdout_exits_0_quietly():
    # a reader that stops early, as `treesym corpus --all-trees 12 | head -1` does; this output
    # outgrows a pipe buffer, so the writer is still writing when the pipe closes
    r = run_python("-m", "treesym.cli", "corpus", "--all-trees", "12", timeout=60, lines=1)
    assert r[:3] == (0, "{\n", "")


def written(obj) -> str:
    """What the CLI's JSON writer prints for ``obj``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_json(obj)
    return out.getvalue()


# quotes, backslashes, control characters, non-ASCII text and lone surrogates, which encode_basestring_ascii escapes
TEXT = st.text(st.sampled_from('"\\\x00\x1f\x7f\xe9\u2028\ud800\udfff\U0001f600')
               | st.characters(exclude_categories=()))
# ints past 4,300 digits too, which json.dumps writes only with Python's digit limit lifted, as main lifts it
INTS = st.integers() | st.integers(4301, 4400).flatmap(lambda d: st.sampled_from([10**d - 1, 1 - 10**d]))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | INTS | TEXT,
    lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(TEXT, kids),
    max_leaves=40,
)


@given(JSON_VALUES)
@settings(max_examples=100, deadline=None)
def test_json_writer_matches_json_dumps(obj):
    with int_digit_limit(0):
        assert written(obj) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("obj", [1.5, {"a": 1.5}, [1, 2.5], [[{"a": [0.0]}]], {1, 2}, ["a", {1}], {1: "a"},
                                 {"a": {True: 1}}, [{"a": 1, None: [2]}], b"a", {"a": object()},
                                 type("Int", (int,), {})(1), [type("Str", (str,), {})("a")]])
def test_json_writer_refuses_what_the_commands_never_emit(obj):
    # json.dumps writes a float or an int or str subclass, makes a bool, int or None key a str, refuses a set
    with pytest.raises(TypeError):
        written(obj)


def test_json_writer_matches_json_dumps_on_every_golden_payload(monkeypatch):
    table = golden_digests["cases"]()
    commands = [(stdin, argv) for runs in table.values() for stdin, argv in runs
                if "--json" in argv or argv[0] in ("oracle", "treelike", "corpus")]
    payloads = recorded(monkeypatch, (cli, "_write_json"))
    for stdin, argv in commands:
        payloads.clear()
        code, out, err = run_cli(*argv, stdin=stdin)
        assert (code, err, len(payloads)) == (0, "", 1), argv
        with int_digit_limit(0):
            assert out == json.dumps(payloads[0][1][0], indent=2) + "\n", argv
    assert len(commands) == 97
