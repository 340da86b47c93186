"""Command line surface: commands, formats, and exit codes."""

import json
from pathlib import Path

import pytest

from quatpoly import (
    HAMILTON,
    CentralClassF,
    InvariantViolation,
    IsolatedRoot,
    NoRootInClass,
    QuatF,
    RootReport,
    SphereClass,
    SphereClassF,
    SphericalRoots,
    UncertainStatus,
    cli,
    numeric,
)
from quatpoly.cli import main

GOLDEN = Path(__file__).parent / "golden"

CUBIC_EXAMPLES = [
    "x^3 - x",
    "x^3 + x",
    "x^3 - i x^2 - x + i",
    "x^3 - i x^2 + x - i",
    "x^3 + (2 - i) x^2 + (1 - 2i) x - i",
    "x^3 + (1 - i) x^2 + (1 - i) x - i",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_eval(self, capsys):
        code, out, _ = run(capsys, "eval", "x^2 + 1", "--at", "j")
        assert code == 0
        assert out.strip() == "P(j) = 0"

    def test_divrem(self, capsys):
        code, out, _ = run(capsys, "divrem", "x^3 - 1", "x - i")
        assert code == 0
        assert "quotient: x^2 + i x - 1" in out
        assert "remainder: -(1 + i)" in out

    def test_gcrd(self, capsys):
        code, out, _ = run(capsys, "gcrd", "(x - i)(x^2 - 1)", "x^2 - 1")
        assert code == 0
        assert out.strip() == "gcrd: x^2 - 1"

    def test_mul_order_sensitive(self, capsys):
        _, out_ij, _ = run(capsys, "mul", "x - i", "x - j")
        _, out_ji, _ = run(capsys, "mul", "x - j", "x - i")
        assert "k" in out_ij
        assert out_ij != out_ji

    def test_decompose_central_factor(self, capsys):
        code, out, _ = run(capsys, "decompose", "(x^2 + 1) x")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == ["leading: 1", "reduced: 1", "central: x^3 + x"]

    def test_coords(self, capsys):
        code, out, _ = run(capsys, "coords", "x^2 + i x + j")
        assert code == 0
        assert out.strip().splitlines() == ["1: x^2", "i: x", "j: 1", "k: 0"]

    def test_classify_text(self, capsys):
        code, out, _ = run(capsys, "classify", "x^3 + x")
        assert code == 0
        assert "central roots: 0" in out
        assert "sphere(trace=0, norm=1): spherical roots" in out

    def test_spherical_bound_attained(self, capsys):
        code, out, _ = run(capsys, "spherical", "(x^2 + 1)(x^2 + x + 1)")
        assert code == 0
        assert "spherical classes: 2 (bound 2)" in out
        assert "bound attained, even structure verified" in out

    def test_analyze(self, capsys):
        code, out, _ = run(capsys, "analyze", "(x^2 + 1)(x - i)")
        assert code == 0
        assert "case: shared_subfield" in out
        assert "candidate factor: x^2 + 1" in out

    def test_cubic(self, capsys):
        code, out, _ = run(capsys, "cubic", "x^3 + i x^2 + 2 x + 3i")
        assert code == 0
        assert "case: outer_pair_in_subfield" in out

    def test_nonroots(self, capsys):
        code, out, _ = run(capsys, "nonroots", "x^2 + x + 1", "--at", "i", "-k", "3")
        assert code == 0
        assert out.strip().splitlines() == ["-k", "-3/5i - 4/5k", "-4/5i - 3/5k"]

    def test_subfield_roots(self, capsys):
        code, out, _ = run(capsys, "subfield-roots", "(x^2 + 1)(x^2 + x + 1)",
                           "--subfield", "j")
        assert code == 0
        assert out.strip().splitlines() == ["j", "-j"]


class TestJsonFormat:
    def test_document_schema(self, capsys):
        code, out, _ = run(capsys, "classify", "x^3 + x", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"command", "algebra", "backend", "input",
                            "result", "diagnostics"}
        assert doc["command"] == "classify"
        assert doc["algebra"] == {"a": "-1", "b": "-1"}
        assert doc["backend"] == "exact"
        assert doc["input"]["poly"] == "x^3 + x"
        assert doc["result"]["central_roots"] == ["0"]
        assert doc["result"]["classes"][0]["status"] == "spherical"

    def test_numeric_backend_marked(self, capsys):
        code, out, _ = run(capsys, "classify", "x^3 + x", "--numeric",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["backend"] == "numeric"
        assert doc["result"]["candidate_source"] == "numeric"
        # numeric results serialize as floats, not strings
        assert doc["result"]["central_roots"] == [0.0]

    def test_eval_json_echoes_input(self, capsys):
        code, out, _ = run(capsys, "eval", "x^2 + 1", "--at", "j",
                           "--format", "json")
        doc = json.loads(out)
        assert doc["input"] == {"poly": "x^2 + 1", "at": "j"}
        assert doc["result"]["value"] == ["0", "0", "0", "0"]

    @pytest.mark.parametrize("argv,echo", [
        pytest.param(("divrem", "x^3 - 1", "x - i"),
                     {"poly": "x^3 - 1", "poly2": "x - i"}, id="divrem"),
        pytest.param(("nonroots", "x^2 + x + 1", "--at", "i", "-k", "3"),
                     {"poly": "x^2 + x + 1", "at": "i", "k": 3}, id="nonroots"),
        pytest.param(("nonroots", "x^2 + x + 1", "--at", "i"),
                     {"poly": "x^2 + x + 1", "at": "i", "k": 5}, id="nonroots-default-k"),
        pytest.param(("subfield-roots", "x^2 + 1", "--subfield", "j"),
                     {"poly": "x^2 + 1", "subfield": "j"}, id="subfield-roots"),
        pytest.param(("classify", "x^2 + 1", "--numeric", "--eps", "1e-7"),
                     {"poly": "x^2 + 1", "eps": 1e-7}, id="numeric-eps"),
        pytest.param(("classify", "x^2 + 1", "--eps", "1e-7"),
                     {"poly": "x^2 + 1", "eps": 1e-7}, id="exact-eps"),
    ])
    def test_input_echo(self, capsys, argv, echo):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["input"] == echo

    @pytest.mark.parametrize("index,text", list(enumerate(CUBIC_EXAMPLES, start=1)))
    def test_golden_classifications_stable(self, capsys, index, text):
        code, out, _ = run(capsys, "classify", text, "--format", "json")
        assert code == 0
        golden = (GOLDEN / f"classify_cubic_{index}.json").read_text()
        assert out == golden


class TestAlgebraFlag:
    def test_non_hamilton_algebra(self, capsys):
        # negative constants need the = form so argparse keeps them
        code, out, _ = run(capsys, "eval", "j k", "--at", "i", "--algebra=-1,-2")
        assert code == 0
        # jk = 2i when b = -2, and a constant ignores the eval point
        assert out.strip() == "P(i) = 2i"

    def test_malformed_algebra(self, capsys):
        code, _, err = run(capsys, "classify", "x", "--algebra", "nope")
        assert code == 1
        assert "algebra" in err or "parse" in err

    def test_split_algebra_classify_still_runs(self, capsys):
        code, out, _ = run(capsys, "classify", "x^2 - 1", "--algebra", "1,1")
        assert code == 0
        assert "central roots: -1, 1" in out


class TestExitCodes:
    def test_parse_error_is_1(self, capsys):
        code, _, err = run(capsys, "classify", "x +")
        assert code == 1
        assert "parse error" in err
        assert "line 1, column 4" in err

    def test_zero_divisor_is_2(self, capsys):
        code, _, err = run(capsys, "divrem", "x^2", "(1 + i) x + 1",
                           "--algebra", "1,1")
        assert code == 2
        assert "zero norm" in err

    @pytest.mark.parametrize("argv", [
        ("divrem", "x", "x - i"),
        ("gcrd", "x", "x - i"),
        ("mul", "x", "x - i"),
        ("decompose", "x"),
        ("coords", "x"),
        ("analyze", "x"),
        ("cubic", "x^3"),
        ("nonroots", "x", "--at", "i"),
    ], ids=lambda argv: argv[0])
    def test_precondition_is_3(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--numeric")
        assert code == 3
        assert out == ""
        assert f"command {argv[0]!r} has no numeric backend" in err

    def test_bad_eps_is_3(self, capsys):
        # --eps is validated on the exact backend too
        for backend in (("--numeric",), ()):
            code, _, err = run(capsys, "classify", "x", *backend, "--eps", "-1")
            assert code == 3
            assert "--eps must be positive" in err

    def test_seed_option_is_gone(self, capsys):
        code, out, err = run(capsys, "classify", "x", "--seed", "1")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --seed 1" in err

    def test_numeric_failure_is_4(self, capsys):
        code, _, err = run(capsys, "classify",
                           "1/10000000000000 x^2 + 10000000000000", "--numeric")
        assert code == 4
        assert "numeric failure" in err

    def test_overcounted_numeric_report_is_4(self, capsys, monkeypatch):
        # an eigensolver that reports every root twice overcounts
        solve = numeric.real_poly_roots
        monkeypatch.setattr(numeric, "real_poly_roots", lambda comp: 2 * solve(comp))
        code, out, err = run(capsys, "classify", "x^3 - x", "--numeric")
        assert code == 4
        assert out == ""
        assert "exceeds the degree 3" in err

    @pytest.mark.parametrize("text", [f"x^2 + {10**200} i x + 1", f"{10**200} x^2 + x + 1"],
                             ids=["product", "power"])
    def test_float_overflow_is_4(self, capsys, text):
        # valid inputs whose float companion overflows: by a product of
        # two coordinates, or by squaring one (float ** raises, not inf)
        code, out, err = run(capsys, "classify", text, "--numeric")
        assert code == 4
        assert out == ""
        assert "numeric failure: non-finite companion coefficient" in err

    @pytest.mark.parametrize("argv", [
        ("classify", f"x^2 + {10**400} i x + 1"),
        ("eval", "x^2 + 1", "--at", f"{10**400} i"),
    ], ids=lambda argv: argv[0])
    def test_too_large_for_float_is_3(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--numeric")
        assert code == 3
        assert out == ""
        assert "precondition violated: component x is too large for float64" in err

    def test_invariant_violation_is_5(self, capsys, monkeypatch):
        def broken(poly):
            raise InvariantViolation("spherical product does not divide")

        monkeypatch.setattr(cli, "classify", broken)
        code, out, err = run(capsys, "classify", "x^2 + 1")
        assert code == 5
        assert out == ""
        assert err.strip() == "internal error: spherical product does not divide"

    def test_missing_command_is_1(self, capsys):
        code, _, _ = run(capsys, "")
        assert code == 1

    def test_unknown_command_is_1(self, capsys):
        code, _, _ = run(capsys, "frobnicate", "x")
        assert code == 1

    def test_help_is_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "classify" in out


class TestNumericDiagnostics:
    def test_spherical_numeric_notes_exact_only_bound_checks(self, capsys):
        code, out, _ = run(capsys, "spherical", "(x^2 + 1)(x^2 + x + 1)",
                           "--numeric", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert any("exact" in d for d in doc["diagnostics"])

    @pytest.mark.parametrize("eps", ["1e-7", "1e-6", "1e-5"])
    def test_loose_eps_keeps_healed_sphere(self, capsys, eps):
        # the clustering tolerance follows --eps; at a fixed 1e-6 these
        # reported the raw eigenvalue scatter point (trace ~ -1e-5)
        code, out, _ = run(capsys, "classify", "(x^2 + 1)(x - i)", "--numeric",
                           "--eps", eps, "--format", "json")
        assert code == 0
        (cls,) = json.loads(out)["result"]["classes"]
        assert cls["status"] == "spherical"
        assert abs(cls["trace"]) < 1e-9
        assert abs(cls["norm"] - 1) < 1e-9


class TestStatusVocabulary:
    """Every class status renders under its own name, in JSON and text."""

    EXACT = RootReport(
        degree=5,
        central_roots=(),
        class_entries=(
            (SphereClass(0, 1), SphericalRoots()),
            (SphereClass(0, 2), IsolatedRoot(HAMILTON.quat(0, 1, 1, 0))),
            (SphereClass(1, 1), NoRootInClass(HAMILTON.zero, HAMILTON.one)),
        ),
        candidate_source="exact",
    )
    NUMERIC = RootReport(
        degree=4,
        central_roots=(),
        class_entries=(
            (CentralClassF(0.5), UncertainStatus(None, None, "central residual in band")),
            (SphereClassF(0.0, 2.0), IsolatedRoot(QuatF(0.0, 1.0, 1.0, 0.0))),
            (SphereClassF(1.0, 1.0), UncertainStatus(None, None, "remainder in band")),
        ),
        candidate_source="numeric",
    )

    @pytest.fixture(autouse=True)
    def fake_reports(self, monkeypatch):
        monkeypatch.setattr(cli, "classify", lambda poly: self.EXACT)
        monkeypatch.setattr(cli, "classify_f64", lambda poly, settings: self.NUMERIC)

    def test_exact_json(self, capsys):
        code, out, _ = run(capsys, "classify", "x^5", "--format", "json")
        assert code == 0
        assert json.loads(out)["result"]["classes"] == [
            {"trace": "0", "norm": "1", "status": "spherical"},
            {"trace": "0", "norm": "2", "status": "isolated",
             "representative": ["0", "1", "1", "0"]},
            {"trace": "1", "norm": "1", "status": "no-root"},
        ]

    def test_numeric_json(self, capsys):
        code, out, _ = run(capsys, "classify", "x^4", "--numeric", "--format", "json")
        assert code == 0
        assert json.loads(out)["result"]["classes"] == [
            {"value": 0.5, "status": "uncertain", "reason": "central residual in band"},
            {"trace": 0.0, "norm": 2.0, "status": "isolated",
             "representative": [0.0, 1.0, 1.0, 0.0]},
            {"trace": 1.0, "norm": 1.0, "status": "uncertain", "reason": "remainder in band"},
        ]

    def test_exact_text(self, capsys):
        code, out, _ = run(capsys, "classify", "x^5")
        assert code == 0
        assert out.splitlines() == [
            "degree: 5",
            "central roots: none",
            "sphere(trace=0, norm=1): spherical roots (the whole class)",
            "sphere(trace=0, norm=2): isolated root i + j",
            "sphere(trace=1, norm=1): no root in this class",
        ]

    def test_numeric_text(self, capsys):
        code, out, _ = run(capsys, "classify", "x^4", "--numeric")
        assert code == 0
        assert out.splitlines() == [
            "degree: 4",
            "central roots: none",
            "central(0.5): uncertain: central residual in band",
            "sphere(trace=0, norm=2): isolated root (0, 1, 1, 0)",
            "sphere(trace=1, norm=1): uncertain: remainder in band",
        ]
