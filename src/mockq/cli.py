"""Command-line front end: batch identity verification, numeric
transformation checks, coefficient dumps and machine-readable reports.

Exit codes: 0 all requested checks pass, 1 at least one failure (reports are
still emitted), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys

from .errors import MockqError
from .numeric import CHECK_NAMES, NumericScene, SCENES, run_check
from .registry import registry_catalog, sides, verify, verify_all

__all__ = ["main", "parse_tau"]


def parse_tau(text: str) -> complex:
    """Parse "a+bi" as Python's complex() reads "a+bj"; "i" alone means 0+1i."""
    s = text.replace(" ", "")
    try:
        tau = None if "j" in s else complex(s.replace("i", "j"))
    except ValueError:
        tau = None
    if tau is None or not (cmath.isfinite(tau) and tau.imag > 0):
        raise ValueError("cannot read tau from %r: expected a+bi with Im(tau) > 0" % text)
    return tau


def _emit(payload, args):
    if args.json:
        text = json.dumps(payload, indent=2)
    else:
        lines = []
        for row in payload:
            if "id" in row:
                line = "%-24s %-4s order=%d  %dms" % (
                    row["id"],
                    row["status"],
                    row["order"],
                    row["ms"],
                )
                if row["first_mismatch"]:
                    fm = row["first_mismatch"]
                    line += "  first mismatch at q^(%d/24): %s vs %s" % (
                        fm["exponent_num_24"],
                        fm["lhs"],
                        fm["rhs"],
                    )
            else:
                line = "%-24s %-4s tau=%g%+gi residual=%.3e tol=%.0e" % (
                    row["name"],
                    row["status"],
                    row["tau"][0],
                    row["tau"][1],
                    row["residual"],
                    row["tol"],
                )
            lines.append(line)
        text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_verify(args) -> int:
    reports = [verify(args.id, args.order)]
    _emit([r.to_json_dict() for r in reports], args)
    return 0 if all(r.status == "pass" for r in reports) else 1


def _cmd_verify_all(args) -> int:
    reports = verify_all(args.order)
    _emit([r.to_json_dict() for r in reports], args)
    return 0 if all(r.status == "pass" for r in reports) else 1


def _cmd_numeric(args) -> int:
    names = [args.check] if args.check else list(CHECK_NAMES)
    if args.tau is not None:
        scenes = [NumericScene(parse_tau(args.tau))]
    else:
        scenes = list(SCENES)
    results = [run_check(n, sc, args.tol) for n in names for sc in scenes]
    _emit([r.to_json_dict() for r in results], args)
    return 0 if all(r.passed for r in results) else 1


def _cmd_coeffs(args) -> int:
    side = sides(args.id, args.order)[0][0 if args.side == "lhs" else 1]
    text = side.dump()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_list(args) -> int:
    payload = [
        {"id": r.id, "default_order": r.default_order, "description": r.description}
        for r in registry_catalog()
    ]
    payload += [{"check": n} for n in CHECK_NAMES]
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for row in payload:
            if "id" in row:
                print("%-24s order %-4d %s" % (row["id"], row["default_order"], row["description"]))
            else:
                print("numeric check: %s" % row["check"])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mockq", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="verify one identity record")
    pv.add_argument("--id", required=True)
    pv.add_argument("--order", type=int, default=None)
    pv.set_defaults(fn=_cmd_verify)

    pa = sub.add_parser("verify-all", help="verify every identity record")
    pa.add_argument("--order", type=int, default=None)
    pa.set_defaults(fn=_cmd_verify_all)

    pn = sub.add_parser("numeric", help="run numeric transformation checks")
    pn.add_argument("--check", default=None)
    pn.add_argument("--tau", default=None)
    pn.add_argument("--tol", type=float, default=None)
    pn.set_defaults(fn=_cmd_numeric)

    pc = sub.add_parser("coeffs", help="dump exact coefficients of a record side")
    pc.add_argument("--id", required=True)
    pc.add_argument("--order", type=int, default=50)
    pc.add_argument("--side", choices=("lhs", "rhs"), default="lhs")
    pc.add_argument("--out", default=None)
    pc.set_defaults(fn=_cmd_coeffs)

    pl = sub.add_parser("list", help="list identity records and numeric checks")
    pl.set_defaults(fn=_cmd_list)

    for sp in (pv, pa, pn, pl):
        sp.add_argument("--json", action="store_true")
    for sp in (pv, pa, pn):
        sp.add_argument("--out", default=None)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except KeyError as exc:
        valid = ", ".join(sorted(r.id for r in registry_catalog()))
        print("error: %s\nvalid ids: %s\nvalid checks: %s"
              % (exc, valid, ", ".join(CHECK_NAMES)), file=sys.stderr)
        return 2
    except (ValueError, MockqError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
