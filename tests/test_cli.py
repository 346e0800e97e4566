import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from floercas import checks, cli, floer, fukaya
from floercas.cli import (
    MAX_CHECK_GENUS,
    MAX_DELTA_GENUS,
    MAX_EIGEN_R,
    MAX_EVAL_BITS,
    MAX_FIBER_SUM_GENUS,
    MAX_FINITE_TYPE_GENUS,
    MAX_MODULE_GENUS,
    MAX_MU_GENUS,
    MAX_ORDER,
    MAX_PRODUCT_GENUS,
    MAX_RELATIONS_R,
    MAX_RING_GENUS,
    main,
)
from floercas.donaldson import product_series
from floercas.floer import FalsificationError, SubquotientModule, eigen_reports
from floercas.linalg import Matrix


#: sigma_a, sigma_b, basis, Q and splits of a sum of two products of surfaces
#: along their common factor E, whose result basis is E and the glued base F
PRODUCT_SUM_PAIRING = {
    "sigma_a": [1, 0],
    "sigma_b": [1, 0],
    "basis": ["E", "F"],
    "Q": [[0, 1], [1, 0]],
    "splits": [
        {"d1": [1, 0], "d2": [0, 0], "sigma_dot": 0},
        {"d1": [0, 1], "d2": [0, 1], "sigma_dot": 1},
    ],
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


class TestRing:
    def test_genus_two_total(self, capsys):
        code, payload, _ = run_json(capsys, "ring", "--genus", "2")
        assert code == 0
        assert payload["total_dim"] == 8

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "ring", "--genus", "1")
        assert code == 0
        assert "total_dim 1" in out

    def test_invariant_only(self, capsys):
        code, payload, _ = run_json(capsys, "ring", "--genus", "2", "--invariant-only")
        assert code == 0
        assert payload["invariant_ring"]["dim"] == 4

    def test_text_skips_level_rings(self, capsys):
        code, full, _ = run(capsys, "ring", "--genus", "4")
        assert code == 0
        code, invariant_only, _ = run(capsys, "ring", "--genus", "4", "--invariant-only")
        assert code == 0
        assert full == invariant_only

    def test_bad_genus(self, capsys):
        code, out, err = run(capsys, "ring", "--genus", "0")
        assert code == 1
        assert err == f"error: --genus must be in 1..{MAX_RING_GENUS}\n"


class TestRelations:
    def test_level_two(self, capsys):
        code, payload, _ = run_json(capsys, "relations", "--flavor", "R", "--r", "2")
        assert code == 0
        assert payload["p1"]["terms"][0]["m"] == [2, 0, 0]

    def test_classical_names_in_text(self, capsys):
        code, out, _ = run(capsys, "relations", "--flavor", "q", "--r", "2")
        assert code == 0
        assert "a^2+b" in out

    def test_unknown_flavor_usage_error(self, capsys):
        code, _, err = run(capsys, "relations", "--flavor", "x", "--r", "2")
        assert code == 1


class TestEigen:
    def test_filtration(self, capsys):
        code, payload, _ = run_json(capsys, "eigen", "--r", "1", "--object", "filtration")
        assert code == 0
        assert payload["dim"] == 2
        roots = {r["value"]["re"] for r in payload["eigen"]["alpha"]["roots"]}
        assert roots == {"4", "-4"}

    def test_block(self, capsys):
        code, payload, _ = run_json(capsys, "eigen", "--r", "2", "--object", "K")
        assert code == 0
        assert payload["dim"] == 2

    def test_ring_object(self, capsys):
        code, payload, _ = run_json(capsys, "eigen", "--r", "2", "--object", "Fbar")
        assert code == 0
        assert payload["dim"] == 3

    def test_block_needs_positive_level(self, capsys):
        code, _, err = run(capsys, "eigen", "--r", "0", "--object", "K")
        assert code == 1

    def test_falsified_action_exits_two(self, capsys, monkeypatch):
        def fail(r):
            raise FalsificationError("action does not preserve the subquotient")

        monkeypatch.setattr("floercas.floer.psi1_block", fail)
        code, out, err = run(capsys, "eigen", "--r", "2", "--object", "K")
        assert code == 2
        assert out == "" and "Traceback" not in err
        assert err == "falsified: action does not preserve the subquotient\n"

    @pytest.mark.parametrize(
        "obj, r, patched", [("filtration", 1, "filtration_step"), ("K", 2, "psi1_block")]
    )
    def test_wrong_layer_spectrum_exits_two(self, capsys, monkeypatch, obj, r, patched):
        # a layer of the right dimension with alpha spectrum {12, -12}
        # instead of {4, -4}: the claims' layer rule rejects it, so eigen does
        actions = {
            "alpha": Matrix([[12, 0], [0, -12]]),
            "beta": Matrix([[-8, 0], [0, -8]]),
            "gamma": Matrix([[0, 0], [0, 0]]),
        }
        module = SubquotientModule(2, eigen_reports(actions.get, 3))
        monkeypatch.setattr(f"floercas.floer.{patched}", lambda _: module)
        code, out, err = run(capsys, "eigen", "--r", str(r), "--object", obj)
        assert code == 2
        assert err == f"falsified: {obj} at r={r}: alpha spectrum mismatch\n"
        assert out == (
            f"{obj} at r={r}: dim 2\n"
            "  alpha: roots: 12 (x1), -12 (x1)\n"
            "  beta: roots: -8 (x2)\n"
            "  gamma: roots: 0 (x2)\n"
        )


class TestFukayaCommands:
    def test_rhff(self, capsys):
        code, payload, _ = run_json(capsys, "rhff", "--genus", "2")
        assert code == 0
        assert payload["rank"] == 3
        line = payload["components"][0]
        assert line["i"] == -1 and line["beta"]["re"] == "-8"

    def test_effective(self, capsys):
        code, payload, _ = run_json(capsys, "effective", "--genus", "2")
        assert code == 0
        assert len(payload["eigenvalues"]) == 3

    def test_delta(self, capsys):
        code, payload, _ = run_json(capsys, "delta", "--genus", "3")
        assert code == 0
        assert payload["total_rank"] == 16

    def test_mu_surface(self, capsys):
        code, payload, _ = run_json(capsys, "mu", "--genus", "2", "--i", "1", "--class", "Sigma")
        assert code == 0
        assert payload["value"]["coeffs"][0]["re"] == "4"

    def test_mu_torus_shorthand(self, capsys):
        code, payload, _ = run_json(
            capsys, "mu", "--genus", "2", "--i", "1", "--class", "torus:3"
        )
        assert code == 0
        assert payload["value"]["coeffs"][1]["re"] == "-2"

    def test_mu_json_class(self, capsys):
        spec = json.dumps({"grade": 0, "mult": 2})
        code, payload, _ = run_json(capsys, "mu", "--genus", "2", "--i", "0", "--class", spec)
        assert code == 0
        assert payload["value"]["coeffs"][0]["re"] == "16"

    def test_mu_index_out_of_range(self, capsys):
        code, _, err = run(capsys, "mu", "--genus", "2", "--i", "5", "--class", "pt")
        assert code == 1

    def test_trunc_flag(self, capsys):
        code, payload, _ = run_json(capsys, "--trunc", "4", "rhff", "--genus", "1")
        assert code == 0
        assert payload["components"][0]["alpha"]["order"] == 4


class TestDonaldsonCommands:
    def test_product(self, capsys):
        code, payload, _ = run_json(capsys, "donaldson", "product", "--g", "2", "--h", "2")
        assert code == 0
        assert payload["terms"] == [
            {"a": "-512", "K": [-2, -2]},
            {"a": "512", "K": [2, 2]},
        ]

    def test_eval(self, capsys, tmp_path):
        path = tmp_path / "series.json"
        path.write_text(json.dumps(product_series(2, 2).to_json()))
        code, payload, _ = run_json(
            capsys, "donaldson", "eval", "--series", str(path), "--class", "1,0", "--order", "4"
        )
        assert code == 0
        assert payload["value"]["coeffs"][1]["re"] == "2048"

    def test_fibersum(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(product_series(2, 1).to_json()))
        b.write_text(json.dumps(product_series(2, 2).to_json()))
        pairing = json.dumps(
            {
                "sigma_a": [1, 0],
                "sigma_b": [1, 0],
                "basis": ["E", "F"],
                "Q": [[0, 1], [1, 0]],
                "splits": [
                    {"d1": [1, 0], "d2": [0, 0], "sigma_dot": 0},
                    {"d1": [0, 1], "d2": [0, 1], "sigma_dot": 1},
                ],
            }
        )
        code, payload, _ = run_json(
            capsys,
            "donaldson", "fibersum",
            "--a", str(a), "--b", str(b),
            "--genus", "2", "--pairing", pairing,
        )
        assert code == 0
        assert payload["terms"] == product_series(2, 3).to_json()["terms"]

    def test_fibersum_degenerate_form_rejected(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(product_series(1, 1).to_json()))
        pairing = json.dumps(
            {
                "sigma_a": [1, 0],
                "sigma_b": [1, 0],
                "basis": ["E", "F"],
                "Q": [[0, 0], [0, 0]],
                "splits": [
                    {"d1": [1, 0], "d2": [0, 0], "sigma_dot": 0},
                    {"d1": [0, 1], "d2": [0, 0], "sigma_dot": 0},
                ],
            }
        )
        code, out, err = run(
            capsys,
            "donaldson", "fibersum",
            "--a", str(a), "--b", str(a),
            "--genus", "1", "--pairing", pairing,
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "nondegenerate" in err

    def test_order(self, capsys):
        code, payload, _ = run_json(capsys, "donaldson", "order", "--genus", "2")
        assert code == 0 and payload["order"] == 2
        code, payload, _ = run_json(
            capsys, "donaldson", "order", "--genus", "2", "--b1-zero"
        )
        assert code == 0 and payload["order"] == 1

    def test_congruence_pass(self, capsys, tmp_path):
        path = tmp_path / "series.json"
        path.write_text(json.dumps(product_series(2, 3).to_json()))
        code, payload, _ = run_json(
            capsys,
            "donaldson", "congruence",
            "--series", str(path), "--sigma", "1,0", "--genus", "2",
        )
        assert code == 0 and payload["passed"]

    def test_congruence_falsified_exit_two(self, capsys, tmp_path):
        path = tmp_path / "series.json"
        blob = {
            "basis": ["E", "F"],
            "Q": [[0, 1], [1, 0]],
            "terms": [{"a": "1", "K": [1, 0]}],
            "simple_type": True,
        }
        path.write_text(json.dumps(blob))
        code, payload, _ = run_json(
            capsys,
            "donaldson", "congruence",
            "--series", str(path), "--sigma", "0,1", "--genus", "2",
        )
        assert code == 2
        assert not payload["passed"]

    def test_text_output_digests(self, capsys, tmp_path):
        # SHA-256 of the text-mode stdout, pinned so that the text renderers
        # of the series calculators cannot drift
        paths = {}
        for name, (g, h) in {"a": (2, 1), "b": (2, 2), "s": (2, 3)}.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(product_series(g, h).to_json()))
        pairing = json.dumps(PRODUCT_SUM_PAIRING)
        cases = [
            (("eval", "--series", str(paths["s"]), "--class", "1,1", "--order", "6"), 0,
             "97847527cc9388181389aaea7faec93e0d7dd8cabbe18788b6bb0efe21fafcc2"),
            (("fibersum", "--a", str(paths["a"]), "--b", str(paths["b"]), "--genus", "2",
              "--pairing", pairing), 0,
             "ea13d9491115c09db9886b092f26e6a41eca714c27e00a756818ea9cd021d657"),
            (("congruence", "--series", str(paths["s"]), "--sigma", "1,0", "--genus", "2"), 0,
             "fef5f80ce468557394ecdcc029aab2ce4c7c2eb750f055edd2bcc7445e2160c2"),
            (("congruence", "--series", str(paths["s"]), "--sigma", "0,1", "--genus", "2"), 2,
             "2b8c6ae6d5862e914542805f6bc496d811954e7f86aedc36a9a7efbeaee8c27d"),
        ]
        for argv, want_code, digest in cases:
            code, out, _ = run(capsys, "donaldson", *argv)
            assert code == want_code
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_missing_series_file(self, capsys):
        code, _, err = run(capsys, "donaldson", "eval", "--series", "/nonexistent.json",
                           "--class", "1,0")
        assert code == 1
        assert "cannot read" in err


class TestCheckCommand:
    def test_exit_zero_and_summary(self, capsys):
        code, out, _ = run(capsys, "check", "--max-genus", "2")
        assert code == 0
        assert "all claims verified" in out
        assert out.count("PASS") == 12

    def test_json_payload(self, capsys):
        code, payload, _ = run_json(capsys, "check", "--max-genus", "2")
        assert code == 0
        assert payload["passed"] is True
        assert len(payload["results"]) == 12

    def test_claim_that_raises_gives_one_fail_line(self, capsys, monkeypatch):
        def boom(max_genus):
            raise RuntimeError("boom")

        monkeypatch.setattr(checks, "check_grading", boom)
        code, out, err = run(capsys, "check", "--max-genus", "1")
        assert code == cli.EXIT_FALSIFIED
        lines = out.splitlines()
        assert len(lines) == 13
        assert lines[1] == "FAIL grading: raised [RuntimeError: boom]"
        assert sum(line.startswith("PASS") for line in lines) == 11
        assert lines[-1] == "SOME CLAIMS FAILED (11/12)"
        assert err == ""
        assert [r.name for r in checks.run_all(1)] == [n for n, _ in checks.CRITERIA]

    def test_genus_bounded_up_front(self, capsys, monkeypatch):
        def no_work(max_genus):
            raise AssertionError("work started past the genus limit")

        monkeypatch.setattr(checks, "run_all", no_work)
        # the message names the option as declared, not as abbreviated
        for option, genus in (("--max-genus", 0), ("--max-genus", MAX_CHECK_GENUS + 1),
                              ("--max-g", MAX_CHECK_GENUS + 1)):
            code, out, err = run(capsys, "check", option, str(genus))
            assert code == 1 and out == ""
            assert err == f"error: --max-genus must be in 1..{MAX_CHECK_GENUS}\n"


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "ring", "--genus", "2", "--bogus")
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def assert_one_line_usage_error(self, code, err):
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_integer_class_multiple(self, capsys):
        code, _, err = run(capsys, "mu", "--genus", "2", "--i", "1", "--class", "pt:x")
        self.assert_one_line_usage_error(code, err)

    def test_malformed_json_class(self, capsys):
        code, _, err = run(capsys, "mu", "--genus", "2", "--i", "1", "--class", "{bad")
        self.assert_one_line_usage_error(code, err)

    def test_non_integer_json_surface_coefficient(self, capsys):
        code, _, err = run(
            capsys, "mu", "--genus", "2", "--i", "1", "--class", '{"grade": 2, "sigma": "x"}'
        )
        self.assert_one_line_usage_error(code, err)

    def test_non_integer_json_point_multiple(self, capsys):
        code, _, err = run(
            capsys, "mu", "--genus", "2", "--i", "1", "--class", '{"grade": 0, "mult": [1]}'
        )
        self.assert_one_line_usage_error(code, err)

    def test_curve_list_length(self, capsys):
        code, _, err = run(
            capsys, "mu", "--genus", "2", "--i", "0", "--class", '{"grade": 1, "curves": [1]}'
        )
        self.assert_one_line_usage_error(code, err)

    def test_surplus_class_fields(self, capsys):
        # each of these read its first fields and ignored the rest
        for spec in ("pt:2:7", "Sigma:1:junk", "gamma:1:2:3", "S1:1:x"):
            code, out, err = run(capsys, "mu", "--genus", "2", "--i", "1", "--class", spec)
            self.assert_one_line_usage_error(code, err)
            assert out == ""

    def test_unknown_json_class_key(self, capsys):
        # the misspelt "sigm" was ignored, and the class read as zero
        code, out, err = run(
            capsys, "mu", "--genus", "2", "--i", "1", "--class", '{"grade": 2, "sigm": 1}'
        )
        self.assert_one_line_usage_error(code, err)
        assert "sigm" in err and out == ""

    def test_non_integer_json_grade(self, capsys):
        # true compared equal to 1 and 2.0 to 2, so both passed as grades
        for grade in ("true", "2.0"):
            code, out, err = run(
                capsys, "mu", "--genus", "2", "--i", "1", "--class", f'{{"grade": {grade}}}'
            )
            self.assert_one_line_usage_error(code, err)
            assert out == ""

    def test_zero_denominator_in_series(self, capsys, tmp_path):
        obj = product_series(1, 1).to_json()
        obj["terms"][0]["a"] = "1/0"
        path = tmp_path / "series.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(
            capsys, "donaldson", "eval", "--series", str(path), "--class", "1,0"
        )
        self.assert_one_line_usage_error(code, err)

    def test_non_integer_class_or_form_in_series(self, capsys, tmp_path):
        # int() would truncate these to K = [1] and Q = [[0]] and answer "value: 1"
        for q, k in (([[0]], [1.5]), ([[0.5]], [1])):
            obj = {"basis": ["E"], "Q": q, "terms": [{"a": "1", "K": k}]}
            path = tmp_path / "series.json"
            path.write_text(json.dumps(obj))
            code, out, err = run(
                capsys, "donaldson", "eval", "--series", str(path), "--class", "1"
            )
            self.assert_one_line_usage_error(code, err)
            assert out == ""

    def test_fractional_fibersum_pairing(self, capsys, tmp_path):
        # int() would truncate each of these and print the unperturbed series
        path = tmp_path / "series.json"
        path.write_text(json.dumps(product_series(2, 1).to_json()))
        for field in ("sigma_a", "d1", "sigma_dot"):
            pairing = {
                "sigma_a": [1, 0],
                "sigma_b": [1, 0],
                "basis": ["E", "F"],
                "Q": [[0, 1], [1, 0]],
                "splits": [
                    {"d1": [1, 0], "d2": [0, 0], "sigma_dot": 0},
                    {"d1": [0, 1], "d2": [0, 1], "sigma_dot": 1},
                ],
            }
            if field == "sigma_a":
                pairing["sigma_a"][0] = 1.5
            elif field == "d1":
                pairing["splits"][0]["d1"][0] = 1.5
            else:
                pairing["splits"][1]["sigma_dot"] = 1.5
            code, out, err = run(
                capsys,
                "donaldson", "fibersum",
                "--a", str(path), "--b", str(path),
                "--genus", "2", "--pairing", json.dumps(pairing),
            )
            self.assert_one_line_usage_error(code, err)
            assert field in err and out == ""

    def _fibersum_genus2(self, tmp_path, pairing):
        path = tmp_path / "series.json"
        path.write_text(json.dumps(product_series(2, 1).to_json()))
        return [
            "donaldson", "fibersum",
            "--a", str(path), "--b", str(path),
            "--genus", "2", "--pairing", json.dumps(pairing),
        ]

    def test_short_fibersum_vector(self, capsys, tmp_path):
        # indexing the basis past the end of the vector raised IndexError
        pairing = dict(PRODUCT_SUM_PAIRING, sigma_a=[1])
        code, out, err = run(capsys, *self._fibersum_genus2(tmp_path, pairing))
        self.assert_one_line_usage_error(code, err)
        assert "glued surface vector" in err and out == ""

    def test_long_fibersum_vector(self, capsys, tmp_path):
        # the extra entries were ignored and a sum printed with exit 0
        pairing = json.loads(json.dumps(PRODUCT_SUM_PAIRING))
        pairing["sigma_a"] = [1, 0, 5]
        pairing["splits"][0]["d2"] = [0, 0, 9]
        code, out, err = run(capsys, *self._fibersum_genus2(tmp_path, pairing))
        self.assert_one_line_usage_error(code, err)
        assert out == ""
        pairing["sigma_a"] = [1, 0]
        code, out, err = run(capsys, *self._fibersum_genus2(tmp_path, pairing))
        self.assert_one_line_usage_error(code, err)
        assert "split of" in err and out == ""

    def test_fractional_fibersum_form(self, capsys, tmp_path):
        # int() would truncate Q to the hyperbolic form and print "terms: 0"
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(product_series(2, 2).to_json()))
        b.write_text(json.dumps(product_series(2, 3).to_json()))
        pairing = dict(PRODUCT_SUM_PAIRING, sigma_b=[0, 1], Q=[[0.5, 1], [1, 0]])
        code, out, err = run(
            capsys,
            "donaldson", "fibersum",
            "--a", str(a), "--b", str(b),
            "--genus", "2", "--pairing", json.dumps(pairing),
        )
        self.assert_one_line_usage_error(code, err)
        assert "Q entries must be integers" in err and out == ""

    def test_simple_type_must_be_boolean(self, capsys, tmp_path):
        # bool("false") is True, so the string would pass as simple type
        obj = product_series(2, 2).to_json()
        obj["simple_type"] = "false"
        path = tmp_path / "series.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(
            capsys,
            "donaldson", "fibersum",
            "--a", str(path), "--b", str(path),
            "--genus", "2", "--pairing", json.dumps(PRODUCT_SUM_PAIRING),
        )
        self.assert_one_line_usage_error(code, err)
        assert "simple_type must be a boolean" in err and out == ""

    def test_series_not_an_object(self, capsys, tmp_path):
        # a list, a number or a string has no .get, which ended in a traceback
        path = tmp_path / "series.json"
        argvs = [("eval", "--series", str(path), "--class", "1"),
                 ("congruence", "--series", str(path), "--sigma", "1", "--genus", "1"),
                 ("fibersum", "--a", str(path), "--b", str(path), "--genus", "2",
                  "--pairing", json.dumps(PRODUCT_SUM_PAIRING))]
        for text in ("[]", "5", '"x"'):
            path.write_text(text)
            for argv in argvs:
                code, out, err = run(capsys, "donaldson", *argv)
                self.assert_one_line_usage_error(code, err)
                assert "a series must be a JSON object" in err and out == ""

    def test_wrong_shapes_name_the_field(self, capsys, tmp_path):
        # these gave "string indices must be integers, not 'str'", "list
        # indices must be integers or slices, not str" and, for the inline
        # [1], a missing file of that name
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"basis": ["E"], "Q": [[0]], "terms": ["1"]}))
        code, out, err = run(capsys, "donaldson", "eval", "--series", str(path), "--class", "1")
        self.assert_one_line_usage_error(code, err)
        assert "each entry of terms must be a JSON object" in err and out == ""
        path.write_text(json.dumps(product_series(2, 1).to_json()))
        pairing = tmp_path / "pairing.json"
        pairing.write_text("[]")
        for spec in (str(pairing), "[1]"):
            argv = ["donaldson", "fibersum", "--a", str(path), "--b", str(path), "--genus", "2"]
            code, out, err = run(capsys, *argv, "--pairing", spec)
            self.assert_one_line_usage_error(code, err)
            assert "a pairing must be a JSON object" in err and out == ""

    def test_malformed_vector(self, capsys, tmp_path):
        path = tmp_path / "series.json"
        path.write_text(json.dumps(product_series(1, 1).to_json()))
        code, _, err = run(
            capsys, "donaldson", "eval", "--series", str(path), "--class", "x,y"
        )
        assert code == 1

    def test_fractional_result_class(self, capsys, tmp_path):
        # det Q = 3: the shifted pairings (3, 4) solve to K = (2/3, 5/3)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"basis": ["E", "F"], "Q": [[0, 1], [1, 0]],
                                 "terms": [{"a": "1", "K": [1, 0]}]}))
        b.write_text(json.dumps({"basis": ["E", "F"], "Q": [[0, 1], [1, 0]],
                                 "terms": [{"a": "1", "K": [1, 1]}]}))
        pairing = dict(PRODUCT_SUM_PAIRING, basis=["D1", "D2"], Q=[[2, 1], [1, 2]], splits=[
            {"d1": [1, 1], "d2": [0, 0], "sigma_dot": 1},
            {"d1": [0, 0], "d2": [1, 1], "sigma_dot": 1},
        ])
        argv = ["donaldson", "fibersum", "--a", str(a), "--b", str(b), "--genus", "1"]
        code, out, err = run(capsys, *argv, "--pairing", json.dumps(pairing))
        self.assert_one_line_usage_error(code, err)
        assert "tracked lattice" in err and out == ""
        # sigma_dot (1, 2) keeps every shifted pairing integral
        pairing["splits"][1]["sigma_dot"] = 2
        code, payload, _ = run_json(capsys, *argv, "--pairing", json.dumps(pairing))
        assert code == 0
        assert [t["K"] for t in payload["terms"]] == [[0, -1], [0, 1], [0, 3]]

    def test_order_bounded_up_front(self, capsys, tmp_path):
        path = tmp_path / "series.json"
        path.write_text(json.dumps(product_series(2, 2).to_json()))
        for argv in (("--order", "100000"), ("--trunc", "100000"), ("--order", "513")):
            start = time.perf_counter()
            code, out, err = run(capsys, "donaldson", "eval", "--series", str(path),
                                 "--class", "1,0", *argv)
            assert time.perf_counter() - start < 1.0
            assert code == 1 and out == ""
            assert err == f"error: {argv[0]} must be in 1..{MAX_ORDER}\n"
        code, _, err = run(capsys, "rhff", "--genus", "1", "--trunc", "513")
        assert code == 1 and err == f"error: --trunc must be in 1..{MAX_ORDER}\n"

    def test_levels_bounded_up_front(self, capsys, monkeypatch):
        code, _, _ = run(capsys, "eigen", "--object", "Fbar", "--r", str(MAX_EIGEN_R))
        assert code == 0
        code, _, _ = run(capsys, "relations", "--flavor", "q", "--r", str(MAX_RELATIONS_R))
        assert code == 0

        def no_work(*args, **kwargs):
            raise AssertionError("work started past the size limit")

        for name in ("relations", "invariant_ring", "gamma_quotient_ring",
                     "filtration_step", "psi1_block", "floer_cohomology"):
            monkeypatch.setattr(floer, name, no_work)
        for name in ("reduced_module", "effective_eigenvalues", "delta_module", "mu_action"):
            monkeypatch.setattr(fukaya, name, no_work)
        for name in ("finite_type_order", "fiber_sum"):
            monkeypatch.setattr(cli.donaldson, name, no_work)
        cases = [(("eigen", "--object", obj, "--r", str(MAX_EIGEN_R + 1)),
                  f"--r must be in 0..{MAX_EIGEN_R}")
                 for obj in ("F", "Fbar", "filtration", "K")]
        cases += [(("relations", "--flavor", flavor, "--r", str(MAX_RELATIONS_R + 1)),
                   f"--r must be in 0..{MAX_RELATIONS_R}")
                  for flavor in ("q", "R", "Rbar")]
        # every genus option but product's (below) and check's (TestCheckCommand)
        for argv, lo, hi in [(("ring",), 1, MAX_RING_GENUS),
                             (("ring", "--invariant-only"), 1, MAX_RING_GENUS),
                             (("rhff",), 1, MAX_MODULE_GENUS),
                             (("effective",), 1, MAX_MODULE_GENUS),
                             (("delta",), 1, MAX_DELTA_GENUS),
                             (("mu", "--i", "0", "--class", "pt"), 1, MAX_MU_GENUS),
                             (("donaldson", "order"), 0, MAX_FINITE_TYPE_GENUS),
                             (("donaldson", "fibersum", "--a", "a.json", "--b", "b.json",
                               "--pairing", "{}"), 1, MAX_FIBER_SUM_GENUS)]:
            cases.append(((*argv, "--genus", str(hi + 1)), f"--genus must be in {lo}..{hi}"))
        for argv, message in cases:
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert err == f"error: {message}\n"

    def test_product_genus_bounded_up_front(self, capsys, monkeypatch):
        code, _, _ = run(capsys, "donaldson", "product", "--g", str(MAX_PRODUCT_GENUS),
                         "--h", str(MAX_PRODUCT_GENUS))
        assert code == 0

        def no_work(*args):
            raise AssertionError("work started past the genus limit")

        monkeypatch.setattr(cli.donaldson, "product_series", no_work)
        # the weight of 47 x 47 has 4460 decimal digits, past what Python prints
        for g, h, option in ((47, 47, "--g"), (MAX_PRODUCT_GENUS + 1, 2, "--g"),
                             (1, MAX_PRODUCT_GENUS + 1, "--h")):
            for fmt in ("text", "json"):
                code, out, err = run(capsys, "donaldson", "product", "--g", str(g),
                                     "--h", str(h), "--format", fmt)
                assert code == 1 and out == ""
                assert err == f"error: {option} must be in 1..{MAX_PRODUCT_GENUS}\n"

    def test_eval_value_bounded_up_front(self, capsys, monkeypatch, tmp_path):
        # 512 exp(K) - 512 exp(-K) with K = (2, 2): at D = (x, 1), K.D = 2x + 2
        # and Q(D) = 2x, so at order 512 the value has about 511 * bits(2x + 2)
        # plus the 10 bits of 512 and the 1 bit of the denominator 1
        path = tmp_path / "series.json"
        path.write_text(json.dumps(product_series(2, 2).to_json()))
        argv = ("donaldson", "eval", "--series", str(path), "--order", "512")
        code, _, _ = run(capsys, *argv, f"--class={2**25},1")  # 511 * 27 + 11 bits
        assert code == 0

        def no_work(*args):
            raise AssertionError("work started past the size limit")

        monkeypatch.setattr(cli.donaldson, "evaluate", no_work)
        # 511 * 28 bits; a 100-digit entry (it used to take 24 s and then fail
        # to print); Q(D) = -2x^2 of 2 * 4000 bits and K.D = 0 at D = (x, -x)
        x = 2**4000
        cases = ((f"{2**26},1", 511 * 28), (f"{10**99},1", 511 * (2 * 10**99 + 2).bit_length()),
                 (f"{x},{-x}", 511 * 4001))
        for cls, bits in ((cls, bits + 11) for cls, bits in cases):
            for fmt in ("text", "json"):
                start = time.perf_counter()
                code, out, err = run(capsys, *argv, f"--class={cls}", "--format", fmt)
                assert time.perf_counter() - start < 1.0
                self.assert_one_line_usage_error(code, err)
                assert out == "" and err == (
                    f"error: the value at --class and --order would have coefficients of about "
                    f"{bits} bits, more than {MAX_EVAL_BITS}\n")

    def test_eval_coefficients_bounded_up_front(self, capsys, monkeypatch, tmp_path):
        # one term a exp(K), K = (0, 1): at D = (2^19, 1), K.D = 2^19 gives
        # 511 * 20 bits, under the limit, and at D = (1, 0) only 511 bits; the
        # numerator 10^4000 + 1 (it used to run 3.5 s and then fail to print)
        # or the denominator 3^9000 takes the size past it.  With 3^8600 that
        # size passes, but every coefficient's denominator divides
        # 3^8600 511! 2^255, of about 17500 bits (it used to end in Python's
        # 4300-digit error)
        def no_work(*args):
            raise AssertionError("work started past the size limit")

        monkeypatch.setattr(cli.donaldson, "evaluate", no_work)
        num, den, small_den = 10**4000 + 1, 3**9000, 3**8600
        small_den_bits = small_den.bit_length() + math.factorial(511).bit_length() + 255
        for a, cls, side, bits in (
            (str(num), f"{2**19},1", "coefficients", 511 * 20 + num.bit_length() + 1),
            (f"1/{den}", "1,0", "coefficients", 511 + 1 + den.bit_length()),
            (f"1/{small_den}", "1,0", "denominators", small_den_bits),
        ):
            path = tmp_path / "series.json"
            path.write_text(json.dumps({"basis": ["E", "F"], "Q": [[0, 1], [1, 0]],
                                        "terms": [{"a": a, "K": [0, 1]}]}))
            code, out, err = run(capsys, "donaldson", "eval", "--series", str(path),
                                 f"--class={cls}", "--order", "512")
            self.assert_one_line_usage_error(code, err)
            assert out == "" and err == (
                f"error: the value at --class and --order would have {side} of about "
                f"{bits} bits, more than {MAX_EVAL_BITS}\n")

    def test_value_too_long_to_print(self, capsys):
        # str() of a Fraction past Python's 4300-digit limit raised ValueError,
        # which ended in a traceback
        nines = "9" * 4300
        for argv in (("rhff", "--genus", "2", "--n", nines),
                     ("mu", "--genus", "2", "--i", "0", "--class", f"pt:{nines}")):
            code, out, err = run(capsys, *argv)
            self.assert_one_line_usage_error(code, err)
            assert err.startswith("error: ValueError: Exceeds the limit") and out == ""
        # one digit more is refused as the spec is read, with Python's reason
        code, out, err = run(capsys, "mu", "--genus", "2", "--i", "0", "--class", f"pt:9{nines}")
        self.assert_one_line_usage_error(code, err)
        assert ": Exceeds the limit (4300 digits)" in err and out == ""


class TestStartup:
    def test_cli_import_leaves_out_dataclasses(self):
        # dataclasses imports inspect, ast, dis and tokenize, and each class
        # it decorates execs generated methods: a third of every command's
        # start-up.  -S keeps site-packages from importing anything first.
        src = Path(cli.__file__).resolve().parents[1]
        probe = "import sys, floercas.cli; print('dataclasses' in sys.modules)"
        done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                              text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(src)))
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")

    def test_series_commands_load_no_ring_code(self, tmp_path):
        # import floercas.cli freezes the heap it built, once; eval and
        # fibersum run on donaldson, exactalg and linalg alone
        src = Path(cli.__file__).resolve().parents[1]
        for name, genus in (("s", 2), ("a", 1), ("b", 1)):
            (tmp_path / f"{name}.json").write_text(json.dumps(product_series(genus, 2).to_json()))
        commands = [
            ["donaldson", "eval", "--series", str(tmp_path / "s.json"), "--class", "1,0"],
            ["donaldson", "fibersum", "--a", str(tmp_path / "a.json"), "--b",
             str(tmp_path / "b.json"), "--genus", "1", "--pairing", json.dumps(PRODUCT_SUM_PAIRING)],
        ]
        probe = (
            "import contextlib, gc, io, sys\n"
            "import floercas.cli\n"
            "lazy = ('floer', 'groebner', 'poly', 'fukaya', 'checks')\n"
            "def loaded():\n"
            "    return [m for m in lazy if 'floercas.' + m in sys.modules]\n"
            "frozen = gc.get_freeze_count()\n"
            "print(loaded(), frozen > 0)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [floercas.cli.main(argv) for argv in {commands!r}]\n"
            "print(loaded(), codes, gc.get_freeze_count() == frozen)\n"
        )
        done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                              text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(src)))
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "[] True\n[] [0, 0] True\n"


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "--format", "json", "eigen", "--r", "2",
                               "--object", "filtration")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_hash_seed_leaves_output_unchanged(self):
        # the in-process determinism claim cannot vary the hash seed, which
        # is fixed when the interpreter starts
        src = Path(cli.__file__).resolve().parents[1]
        for argv in (("check", "--max-genus", "4", "--format", "json"),
                     ("ring", "--genus", "5", "--format", "json")):
            outs = []
            for seed in ("0", "12345"):
                env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
                done = subprocess.run([sys.executable, "-m", "floercas.cli", *argv],
                                      capture_output=True, timeout=120, env=env)
                assert (done.returncode, done.stderr) == (0, b""), argv
                outs.append(done.stdout)
            assert outs[0] == outs[1], argv


def _leaves(parser, path=()):
    """(argv prefix, parser) of every command that takes no subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return [leaf for name, sub in action.choices.items()
                    for leaf in _leaves(sub, (*path, name))]
    return [(path, parser)]


PARSER = cli.build_parser()
LEAVES = _leaves(PARSER)
#: 10^5000, past the 4300 digits that int() reads
HUGE = "1" + "0" * 5000


def _value(action):
    if isinstance(action, cli._Bounded):
        hi = action.lo + 10 if action.hi is None else action.hi
        inside = st.integers(action.lo, hi).map(str)
        edges = (-(10 ** 6), -1, 0, action.lo - 1, action.lo, hi, hi + 1)
        return st.one_of(inside, inside, st.sampled_from((*map(str, edges), HUGE)))
    if action.choices:
        return st.sampled_from((*action.choices, *action.choices, "bogus"))
    good = {int: "1", cli._parse_vector: "1,0"}.get(action.type, "pt")
    return st.sampled_from((good, good, "-1", "x", HUGE))


@st.composite
def _command_lines(draw):
    """A command line over one command's own options and the global ones,
    each present or not, and the ranged options of that command; -h/--help
    is never drawn."""
    path, leaf = draw(st.sampled_from(LEAVES))

    def options(parser):
        argv = []
        for action in parser._actions:
            if not action.option_strings or isinstance(action, argparse._HelpAction):
                continue
            if draw(st.integers(0, 9)) < (9 if action.required else 3):
                argv.append(action.option_strings[0])
                if action.nargs != 0:
                    argv.append(draw(_value(action)))
        return argv

    argv = [*options(PARSER), *path, *options(leaf)]
    ranged = [a for p in (PARSER, leaf) for a in p._actions if isinstance(a, cli._Bounded)]
    return argv, ranged


class TestParserFuzz:
    @settings(max_examples=400, deadline=None)
    @given(_command_lines())
    def test_namespace_in_range_or_usage_error(self, case):
        argv, ranged = case
        try:
            args = cli.build_parser().parse_args(argv)
        except cli.UsageError:
            return
        for action in ranged:
            value = getattr(args, action.dest, None)
            if value is not None:
                assert value >= action.lo and (action.hi is None or value <= action.hi)


# -- JSON inputs: series files, pairings and mu --class specs -----------------

_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-4, 4),
                     st.sampled_from([10**40, -(2**63), 0.5, "1/2", "x", "", "1/0"]))
#: any JSON value, small
_ANY = st.recursive(_SCALARS, lambda kids: st.lists(kids, max_size=3)
                    | st.dictionaries(st.text(max_size=3), kids, max_size=3), max_leaves=8)


#: words of Python's own messages about types, which no message should use
_PYTHON_WORDS = re.compile(
    r"\b(str|int|float|bool|list|dict|tuple|NoneType|Fraction|Rational)\b"
    r"|indices|subscriptable|iterable|instance|attribute"
)


def _mostly(good, bad=_ANY):
    """good seven times in eight, bad (any JSON value) otherwise, so that
    most inputs get past the first check and some reach the calculators."""
    return st.sampled_from([True] * 7 + [False]).flatmap(lambda ok: good if ok else bad)


_VECTORS = _mostly(st.lists(st.integers(-4, 4), min_size=2, max_size=2),
                   st.lists(st.integers(-4, 4), max_size=3) | _ANY)
_FORMS = _mostly(st.just([[0, 1], [1, 0]]), st.lists(_VECTORS, max_size=3))
_SERIES = _mostly(st.fixed_dictionaries(
    {
        "basis": _mostly(st.just(["E", "F"]), st.lists(st.text(max_size=2), max_size=3)),
        "Q": _FORMS,
        "terms": _mostly(st.lists(st.fixed_dictionaries(
            {"a": _mostly(st.sampled_from(["1", "-1/2", "3", "0", "1/0"])), "K": _VECTORS}
        ), max_size=3)),
    },
    optional={"simple_type": _mostly(st.booleans())},
))
_PAIRING = _mostly(st.just(PRODUCT_SUM_PAIRING), st.fixed_dictionaries({
    "sigma_a": _VECTORS,
    "sigma_b": _VECTORS,
    "basis": _mostly(st.just(["E", "F"])),
    "Q": _FORMS,
    "splits": _mostly(st.lists(st.fixed_dictionaries(
        {"d1": _VECTORS, "d2": _VECTORS, "sigma_dot": _mostly(st.integers(-2, 2))}
    ), max_size=3)),
}))
_CLASS_SPEC = _mostly(st.fixed_dictionaries(
    {"grade": _mostly(st.integers(-1, 3))},
    optional={key: _mostly(st.integers(-3, 3) | _VECTORS)
              for key in ("sigma", "torus", "circle", "curves", "mult", "bogus")},
))


def _json_text(values):
    """The JSON text of a drawn value, or now and then text that is not JSON."""
    return _mostly(values.map(json.dumps), st.text(max_size=8))


@st.composite
def _json_commands(draw):
    """A command line of one of the commands that read JSON, with the files
    it names; every size on it is small, so no expensive job starts."""
    files = {"a.json": draw(_json_text(_SERIES)), "b.json": draw(_json_text(_SERIES))}
    vector = draw(st.sampled_from(["1,0", "0,1", "1,1,1", "2"]))
    genus = str(draw(st.integers(1, 3)))
    argv = draw(st.sampled_from([
        ["donaldson", "eval", "--series", "a.json", "--class", vector, "--order", "6"],
        ["donaldson", "congruence", "--series", "a.json", "--sigma", vector, "--genus", genus],
        ["donaldson", "fibersum", "--a", "a.json", "--b", "b.json", "--genus", genus,
         "--pairing", draw(_json_text(_PAIRING))],
        ["mu", "--genus", genus, "--i", str(draw(st.integers(-1, 1))),
         "--class", draw(_json_text(_CLASS_SPEC))],
    ]))
    return files, argv + draw(st.sampled_from([[], ["--format", "json"]]))


class TestJsonInputFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_json_commands())
    def test_exit_code_and_one_line(self, case):
        files, argv = case
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in files.items():
                with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                    fh.write(text)
            argv = [os.path.join(tmp, arg) if arg in files else arg for arg in argv]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        assert len(err.splitlines()) <= 1 and "Traceback" not in out + err
        if code == 1:
            assert out == "" and err.startswith("error: ")
        # a message names the field that is wrong, in the input's terms, not
        # the Python type that an unchecked shape ran into
        for arg in argv:
            err = err.replace(repr(arg), "")
        assert not _PYTHON_WORDS.search(err), err


#: JSON values as the handlers build them: nested dicts and lists of str,
#: int, bool and None, with non-ASCII text, escapes and empty containers
_PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=30,
)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(_PAYLOADS)
    @example({"a": [], "b": {}, "c": ["\u00e9\n\"\\\t\x00\U0001f600", -(10**30)], "": [[{}]]})
    def test_matches_json_dumps(self, payload):
        assert cli._json_text(payload) == json.dumps(payload, indent=2)

    def test_tuples_are_arrays(self):
        assert cli._json_text({"t": (1, (2,), ())}) == json.dumps({"t": [1, [2], []]}, indent=2)

    def test_other_types_refused(self):
        for payload in (0.5, {"x": {1, 2}}, {1: "non-string key"}):
            with pytest.raises(TypeError):
                cli._json_text(payload)
