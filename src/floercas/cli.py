"""Command-line front end: constructions, decompositions, the series
calculators and the full verification suite.

Exit codes: 0 success, 1 usage error, 2 a verified structural claim
failed (the tool is a referee as well as a calculator, and the two
failure modes are kept machine-distinguishable).  Output is deterministic
byte for byte for identical invocations.

Each handler builds its text from the result objects it computed; the
JSON output is those objects' to_json, and nothing reads it back.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import checks, donaldson, fukaya
from .exactalg import DEFAULT_ORDER, TruncatedSeries
from .floer import (
    FalsificationError,
    eigen_reports,
    filtration_step,
    floer_cohomology,
    gamma_quotient_ring,
    invariant_ring,
    psi1_block,
    relations,
)
from .linalg import EigenReport

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FALSIFIED = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so usage errors map to 1."""

    def error(self, message):
        raise UsageError(message)


def _require(cond: bool, message: str):
    if not cond:
        raise UsageError(message)


# ---------------------------------------------------------------------------
# renderers


def _series_text(series: TruncatedSeries) -> str:
    parts = []
    for k, c in enumerate(series.coeffs):
        if not c:
            continue
        cs = str(c)
        tk = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        parts.append(cs if not tk else (tk if cs == "1" else f"-{tk}" if cs == "-1" else f"({cs})*{tk}"))
    return " + ".join(parts) if parts else "0"


def _eigen_text(report: EigenReport) -> str:
    roots = ", ".join(f"{value} (x{mult})" for value, mult in report.roots)
    tail = "" if report.complete() else "  UNEXPLAINED-FACTOR"
    return f"roots: {roots or '-'}{tail}"


def _series_payload_text(series: donaldson.DonaldsonSeries) -> str:
    terms = ", ".join(f"({a}, {list(k)})" for a, k in series.terms) or "0"
    return f"basis {list(series.basis_names)}, Q {[list(row) for row in series.q]}\nterms: {terms}"


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (exit_code, JSON payload, text), the
# payload from the results' to_json and the text from the results themselves


def _cmd_ring(args):
    _require(args.genus >= 1, "--genus must be >= 1")
    ring = floer_cohomology(args.genus)
    # only the JSON output carries the level rings and their spectra
    payload = ring.to_json(include_rings=args.format == "json" and not args.invariant_only)
    if args.invariant_only:
        payload["invariant_ring"] = invariant_ring(args.genus).to_json()
    lines = [f"genus {ring.genus}: total_dim {ring.total_dim}"]
    for s in ring.summands:
        lines.append(
            f"  k={s.k}  multiplicity {s.multiplicity}  level {s.level}"
            f"  level_dim {s.ring.dim}  contributes {s.dim}"
        )
    return EXIT_OK, payload, "\n".join(lines)


def _cmd_relations(args):
    _require(args.r >= 0, "--r must be >= 0")
    tri = relations(args.flavor, args.r)
    names = tri.variable_names()
    lines = [f"flavor {tri.flavor}, level {tri.r}:"]
    for key, poly in zip(("p1", "p2", "p3"), (tri.p1, tri.p2, tri.p3)):
        lines.append(f"  {key} = {poly.render(names)}")
    return EXIT_OK, tri.to_json(), "\n".join(lines)


def _cmd_eigen(args):
    _require(args.r >= 0, "--r must be >= 0")
    code = EXIT_OK
    want_dim = None
    if args.object in ("F", "Fbar"):
        ring = invariant_ring(args.r) if args.object == "F" else gamma_quotient_ring(args.r)
        reports = eigen_reports(ring.mult_matrix, args.r + 1)
        dim = ring.dim
    else:
        if args.object == "filtration":
            module = filtration_step(args.r)
            want_dim = args.r + 1
        else:
            _require(args.r >= 1, "--r must be >= 1 for the torsion block")
            module = psi1_block(args.r)
            want_dim = args.r
        reports, dim = module.eigen, module.dim
        if dim != want_dim or not module.complete():
            code = EXIT_FALSIFIED
    payload = {"object": args.object, "r": args.r, "dim": dim}
    if want_dim is not None:
        payload["expected_dim"] = want_dim
    payload["eigen"] = {name: rep.to_json() for name, rep in reports.items()}
    lines = [f"{args.object} at r={args.r}: dim {dim}"]
    if want_dim not in (None, dim):
        lines.append(f"  EXPECTED dim {want_dim}")
    lines += [f"  {name}: {_eigen_text(reports[name])}" for name in ("alpha", "beta", "gamma")]
    return code, payload, "\n".join(lines)


def _cmd_rhff(args):
    _require(args.genus >= 1, "--genus must be >= 1")
    module = fukaya.reduced_module(args.genus, args.n, order=args.trunc)
    lines = [f"genus {module.genus}, loop multiple {module.n}: rank {module.rank}"]
    for c in module.components:
        lines.append(f"  i={c.i:+d}  alpha = {_series_text(c.alpha)}  beta = {c.beta}")
    return EXIT_OK, module.to_json(), "\n".join(lines)


def _cmd_effective(args):
    _require(args.genus >= 1, "--genus must be >= 1")
    vals = fukaya.effective_eigenvalues(args.genus, order=args.trunc)
    payload = {"genus": args.genus, "eigenvalues": [v.to_json() for v in vals]}
    lines = [f"genus {args.genus}: {len(vals)} joint eigenvalues"]
    for v in vals:
        lines.append(f"  (alpha, beta, gamma) = ({_series_text(v.alpha)}, {v.beta}, {v.gamma})")
    return EXIT_OK, payload, "\n".join(lines)


def _cmd_delta(args):
    _require(args.genus >= 1, "--genus must be >= 1")
    module = fukaya.delta_module(args.genus)
    lines = [f"genus {module.genus}: total rank {module.total_rank}"]
    for c in module.components:
        lines.append(
            f"  k={c.k}  i={c.i:+d}  mult {c.multiplicity}  alpha = {c.alpha}  beta = {c.beta}"
        )
    return EXIT_OK, module.to_json(), "\n".join(lines)


def _integer(value, name: str):
    _require(isinstance(value, int) and not isinstance(value, bool), f"{name} must be an integer")
    return value


def _parse_homology_class(spec: str, g: int) -> fukaya.YHomologyClass:
    if spec.startswith("{"):
        obj = json.loads(spec)
        grade = obj["grade"]
        if grade == 2:
            torus = tuple(_integer(c, "torus entry") for c in obj.get("torus", [0] * (2 * g)))
            _require(len(torus) == 2 * g, f"torus coefficient list must have length {2 * g}")
            return fukaya.YHomologyClass.surface(_integer(obj.get("sigma", 0), "sigma"), torus)
        if grade == 1:
            surface = tuple(_integer(c, "curves entry") for c in obj.get("curves", [0] * (2 * g)))
            _require(len(surface) == 2 * g, f"curve coefficient list must have length {2 * g}")
            return fukaya.YHomologyClass.curve(_integer(obj.get("circle", 0), "circle"), surface)
        if grade == 0:
            return fukaya.YHomologyClass.point(_integer(obj.get("mult", 1), "mult"))
        raise UsageError("grade must be 0, 1 or 2")
    parts = spec.split(":")
    kind = parts[0]
    if kind == "pt":
        mult = int(parts[1]) if len(parts) > 1 else 1
        return fukaya.YHomologyClass.point(mult)
    if kind == "Sigma":
        c = int(parts[1]) if len(parts) > 1 else 1
        return fukaya.YHomologyClass.surface(c, ())
    if kind == "S1":
        c = int(parts[1]) if len(parts) > 1 else 1
        return fukaya.YHomologyClass.curve(circle_coeff=c)
    if kind in ("gamma", "torus"):
        _require(len(parts) >= 2, f"{kind}:<j> needs a curve index")
        j = int(parts[1])
        _require(1 <= j <= 2 * g, f"curve index must be in 1..{2 * g}")
        coeffs = [0] * (2 * g)
        coeffs[j - 1] = int(parts[2]) if len(parts) > 2 else 1
        make = fukaya.YHomologyClass.curve if kind == "gamma" else fukaya.YHomologyClass.surface
        return make(0, coeffs)
    raise UsageError(f"unknown class spec {spec!r}")


def _cmd_mu(args):
    _require(args.genus >= 1, "--genus must be >= 1")
    _require(abs(args.i) <= args.genus - 1, "--i must satisfy |i| <= genus-1")
    try:
        cls = _parse_homology_class(args.cls, args.genus)
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"malformed class spec {args.cls!r}: {exc}") from exc
    value = fukaya.mu_action(args.i, cls, order=args.trunc)
    payload = {
        "genus": args.genus,
        "i": args.i,
        "class": args.cls,
        "grade": cls.grade,
        "value": value.to_json(),
    }
    return EXIT_OK, payload, f"action on the i={args.i} line: {_series_text(value)}"


def _load_series(path: str) -> donaldson.DonaldsonSeries:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return donaldson.DonaldsonSeries.from_json(json.load(fh))
    except OSError as exc:
        raise UsageError(f"cannot read series file {path}: {exc}") from exc
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed series file {path}: {exc}") from exc


def _parse_vector(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(","))
    except ValueError as exc:
        raise UsageError(f"malformed integer vector {text!r}") from exc


def _cmd_don_product(args):
    _require(args.g >= 1 and args.h >= 1, "--g and --h must be >= 1")
    series = donaldson.product_series(args.g, args.h)
    return EXIT_OK, series.to_json(), _series_payload_text(series)


def _cmd_don_eval(args):
    series = _load_series(args.series)
    d = _parse_vector(args.cls)
    _require(len(d) == len(series.basis_names), "evaluation class has wrong length")
    order = args.order if args.order is not None else args.trunc
    _require(order >= 1, "--order must be >= 1")
    value = donaldson.evaluate(series, d, order)
    payload = {"class": list(d), "order": order, "value": value.to_json()}
    return EXIT_OK, payload, f"value: {_series_text(value)}"


def _cmd_don_fibersum(args):
    a = _load_series(args.a)
    b = _load_series(args.b)
    try:
        if args.pairing.strip().startswith("{"):
            pairing = json.loads(args.pairing)
        else:
            with open(args.pairing, "r", encoding="utf-8") as fh:
                pairing = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read pairing spec: {exc}") from exc
    try:
        inp = donaldson.FiberSumInput.from_json(a, b, args.genus, pairing)
        result = donaldson.fiber_sum(inp)
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"invalid fiber-sum input: {exc}") from exc
    return EXIT_OK, result.to_json(), _series_payload_text(result)


def _cmd_don_order(args):
    _require(args.genus >= 0, "--genus must be >= 0")
    n = donaldson.finite_type_order(args.genus, args.b1_zero)
    payload = {"genus": args.genus, "b1_zero": args.b1_zero, "order": n}
    return EXIT_OK, payload, f"finite-type order bound: {n}"


def _cmd_don_congruence(args):
    series = _load_series(args.series)
    sigma = _parse_vector(args.sigma)
    _require(len(sigma) == len(series.basis_names), "sigma vector has wrong length")
    _require(args.genus >= 1, "--genus must be >= 1")
    try:
        report = donaldson.congruence_check(series, sigma, args.genus)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    code = EXIT_OK if report.passed else EXIT_FALSIFIED
    lines = [f"target residue {report.target} mod 4: " + ("pass" if report.passed else "FAIL")]
    for k, pairing, residue, ok in report.verdicts:
        lines.append(
            f"  K={list(k)}  K.Sigma={pairing}  residue {residue}  {'ok' if ok else 'FAIL'}"
        )
    return code, report.to_json(), "\n".join(lines)


def _cmd_check(args):
    _require(args.max_genus >= 1, "--max-genus must be >= 1")
    results = checks.run_all(max_genus=args.max_genus)
    passed = all(r.passed for r in results)
    payload = {
        "max_genus": args.max_genus,
        "results": [r.to_json() for r in results],
        "passed": passed,
    }
    lines = [r.line() for r in results]
    lines.append(
        f"{'all claims verified' if passed else 'SOME CLAIMS FAILED'} "
        f"({sum(1 for r in results if r.passed)}/{len(results)})"
    )
    return (EXIT_OK if passed else EXIT_FALSIFIED), payload, "\n".join(lines)


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="floercas", description=__doc__)
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--trunc", type=int, default=DEFAULT_ORDER,
                        help="series truncation order (default 16)")
    # the global flags are also accepted after any subcommand; SUPPRESS keeps
    # a subparser from clobbering a value parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    common.add_argument("--trunc", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ring", help="assembled ring of a given genus", parents=[common])
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--invariant-only", action="store_true")
    p.set_defaults(fn=_cmd_ring)

    p = sub.add_parser("relations", help="relation polynomials of one level", parents=[common])
    p.add_argument("--flavor", choices=("q", "R", "Rbar"), required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(fn=_cmd_relations)

    p = sub.add_parser("eigen", help="spectra of the variable actions", parents=[common])
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--object", choices=("F", "Fbar", "filtration", "K"), required=True)
    p.set_defaults(fn=_cmd_eigen)

    p = sub.add_parser("rhff", help="reduced module with t-corrections", parents=[common])
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(fn=_cmd_rhff)

    p = sub.add_parser("effective", help="effective joint eigenvalue table", parents=[common])
    p.add_argument("--genus", type=int, required=True)
    p.set_defaults(fn=_cmd_effective)

    p = sub.add_parser("delta", help="module attached to a loop in the surface", parents=[common])
    p.add_argument("--genus", type=int, required=True)
    p.set_defaults(fn=_cmd_delta)

    p = sub.add_parser("mu", help="action of a homology class on one line", parents=[common])
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--class", dest="cls", required=True,
                   help="pt[:m] | Sigma[:c] | S1[:c] | gamma:<j>[:c] | torus:<j>[:c] | JSON")
    p.set_defaults(fn=_cmd_mu)

    don = sub.add_parser("donaldson", help="series calculators", parents=[common])
    dsub = don.add_subparsers(dest="don_command", required=True)

    p = dsub.add_parser("product", help="series of a product of two surfaces", parents=[common])
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.set_defaults(fn=_cmd_don_product)

    p = dsub.add_parser("eval", help="evaluate a series on a homology class", parents=[common])
    p.add_argument("--series", required=True)
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(fn=_cmd_don_eval)

    p = dsub.add_parser("fibersum", help="sum of two series along a surface", parents=[common])
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--pairing", required=True,
                   help="JSON file or inline JSON with sigma_a, sigma_b, basis, Q, splits")
    p.set_defaults(fn=_cmd_don_fibersum)

    p = dsub.add_parser("order", help="finite-type order bound", parents=[common])
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--b1-zero", action="store_true")
    p.set_defaults(fn=_cmd_don_order)

    p = dsub.add_parser("congruence", help="basic-class congruence test", parents=[common])
    p.add_argument("--series", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--genus", type=int, required=True)
    p.set_defaults(fn=_cmd_don_congruence)

    p = sub.add_parser("check", help="run the full verification suite", parents=[common])
    p.add_argument("--max-genus", type=int, default=3)
    p.set_defaults(fn=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _require(args.trunc >= 1, "--trunc must be >= 1")
        code, payload, text = args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FalsificationError as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    print(json.dumps(payload, indent=2) if args.format == "json" else text)
    return code


if __name__ == "__main__":
    sys.exit(main())
