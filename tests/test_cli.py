import hashlib
import json

from floercas.cli import main
from floercas.donaldson import product_series
from floercas.floer import FalsificationError


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
        assert "error" in err


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

        monkeypatch.setattr("floercas.cli.psi1_block", fail)
        code, out, err = run(capsys, "eigen", "--r", "2", "--object", "K")
        assert code == 2
        assert out == "" and "Traceback" not in err
        assert err == "falsified: action does not preserve the subquotient\n"


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

    def test_malformed_vector(self, capsys, tmp_path):
        path = tmp_path / "series.json"
        path.write_text(json.dumps(product_series(1, 1).to_json()))
        code, _, err = run(
            capsys, "donaldson", "eval", "--series", str(path), "--class", "x,y"
        )
        assert code == 1


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "--format", "json", "eigen", "--r", "2",
                               "--object", "filtration")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
