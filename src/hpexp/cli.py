"""Command line entry point: ``hpexp <subcommand>``.

Subcommands: basis-count, project-sweep, lemma-audit, sharp-ratio,
fem-lshape, fem-sine, dg-sine, slope-fit, run.  Each sweep subcommand (all
but sharp-ratio, slope-fit and run) builds one sweep in the config format of
``hpexp run`` from its options, which carry the names of the config keys, and
goes through the same validator and runner; an option not given is left out
of the sweep, so the kind's own default applies.  project-sweep and the FEM
and DG sweeps print CSV to stdout, or with --out PREFIX the config runner
writes PREFIX.csv and PREFIX.meta.json with the same meta fields as
``hpexp run``; basis-count and lemma-audit print their own tables.  Exit
codes: 0 success, 1 usage or config error, 2 numerical failure.  A sweep's
options are checked by the config validator before it runs, so any other
error raised inside a sweep is a bug and propagates with its traceback;
only sharp-ratio and slope-fit map their functions' ``ValueError`` and
``KeyError`` to a usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import harness
from .bounds import phi, sharp_l2_ratio
from .harness import (ConfigError, fit_slope, records_from_csv, records_to_csv,
                      run_config, run_sweep)


# the subcommands whose functions validate their inputs themselves, with a
# ValueError or KeyError; every other one goes through the config validator
_VALIDATING = ("sharp-ratio", "slope-fit")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _degrees(text: str) -> list[int]:
    """The integers of a comma separated list; argparse reports a bad one."""
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma separated list of integers: {text!r}") from None


def _sweep(args) -> dict:
    """The config-format sweep of a subcommand; its options carry the key names."""
    fields = harness.KINDS[args.command].fields
    sw = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    if "family" in sw:
        sw["family"] = sw["family"].upper()
    if "p_list" in fields:
        sw["p_list"] = (args.p_list if getattr(args, "p_list", None)
                        else list(range(getattr(args, "p_min", 1), args.p_max + 1)))
    out = getattr(args, "out", None)
    return {"name": Path(out).name if out else args.command,
            "kind": args.command, **sw}


def _build_parser() -> _Parser:
    parser = _Parser(prog="hpexp")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("basis-count", help="Dof table for one family")
    pc.add_argument("--dim", type=int, required=True, choices=(2, 3))
    pc.add_argument("--family", required=True, choices=("Q", "P", "S"))
    pc.add_argument("--p-max", type=int, required=True)

    ps = sub.add_parser("project-sweep", help="projection error sweep")
    ps.add_argument("--dim", type=int, required=True, choices=(2, 3))
    ps.add_argument("--kind", dest="proj_kind", required=True,
                    choices=harness.PROJECTION_KINDS)
    ps.add_argument("--function", choices=("sine", "expsum", "runge1d-tensor"))
    ps.add_argument("--p-min", type=int, required=True)
    ps.add_argument("--p-max", type=int, required=True)
    ps.add_argument("--margin", type=int)
    ps.add_argument("--runge-a", type=float)

    la = sub.add_parser("lemma-audit", help="lattice audit of the Gamma bound")
    la.add_argument("--dim", type=int, required=True, choices=(1, 2, 3))
    la.add_argument("--M-max", type=int, required=True)
    la.add_argument("--m-max", type=int, required=True)

    sr = sub.add_parser("sharp-ratio", help="worst per-mode L2(P) ratio")
    sr.add_argument("--dim", type=int, required=True, choices=(1, 2, 3))
    sr.add_argument("--p", type=int, required=True)
    sr.add_argument("--s", type=int, required=True)
    sr.add_argument("--buffer", type=int, default=6)

    fl = sub.add_parser("fem-lshape", help="L-shape corner benchmark")
    fl.add_argument("--family", required=True, choices=("q", "s"))
    degrees = fl.add_mutually_exclusive_group(required=True)
    degrees.add_argument("--p-max", type=int, help="degrees 1..P_MAX")
    degrees.add_argument("--p-list", type=_degrees,
                         help="comma separated degrees")
    fl.add_argument("--graded-layers", type=int)
    fl.add_argument("--graded-ratio", type=float)

    fs = sub.add_parser("fem-sine", help="sine Poisson benchmark")
    fs.add_argument("--dim", type=int, required=True, choices=(2, 3))
    fs.add_argument("--n", type=int, required=True)
    fs.add_argument("--family", required=True, choices=("q", "s"))
    fs.add_argument("--p-max", type=int, required=True)
    fs.add_argument("--p-min", type=int, default=1)

    dg = sub.add_parser("dg-sine", help="SIP DG sine benchmark")
    dg.add_argument("--n", type=int, required=True)
    dg.add_argument("--family", required=True, choices=("p", "q"))
    dg.add_argument("--p-max", type=int, required=True)
    dg.add_argument("--p-min", type=int, default=1)
    dg.add_argument("--gamma", type=float)

    for sweep_parser in (ps, fl, fs, dg):
        sweep_parser.add_argument("--out", default=None)

    sf = sub.add_parser("slope-fit", help="fit slopes from a sweep CSV")
    sf.add_argument("csv", type=Path)
    sf.add_argument("--abscissa", default="dof_root", choices=("p", "dof_root"))
    sf.add_argument("--error-key", default="l2")
    sf.add_argument("--window", type=int, default=2)
    sf.add_argument("--floor", type=float, default=harness.ERROR_FLOOR)

    rn = sub.add_parser("run", help="execute a JSON sweep config")
    rn.add_argument("config", type=Path)
    rn.add_argument("--out-dir", default=".")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in harness.KINDS:
            sw = _sweep(args)
            if getattr(args, "out", None):
                run_config({"sweeps": [sw]}, out_dir=Path(args.out).parent)
            elif args.command == "basis-count":
                sys.stdout.write("p,dof\n" + "".join(f"{r.p},{r.dof}\n"
                                                     for r in run_sweep(sw)))
            elif args.command == "lemma-audit":
                recs = run_sweep(sw)
                sys.stdout.write("d,M,m,lattice_max,phi,holds,argmax\n")
                for r in recs:
                    arg = f"xi={r.extra['argmax_xi']} rho={r.extra['argmax_rho']}"
                    sys.stdout.write(
                        f"{r.dim},{r.p},{r.dof},{r.error('lattice_max'):.14e},"
                        f"{r.error('phi'):.14e},{r.extra['holds']},"
                        f"{arg.replace(',', ';')}\n")
            else:
                sys.stdout.write(records_to_csv(run_sweep(sw)))
        elif args.command == "sharp-ratio":
            res = sharp_l2_ratio(args.dim, args.p, args.s, args.buffer)
            bound = phi(args.dim, args.p + 1, args.s)
            sys.stdout.write(
                f"d={args.dim} p={args.p} s={args.s}: max_ratio="
                f"{res['max_ratio']:.14e} at i={res['argmax']}, "
                f"phi(d,p+1,s)={bound:.14e}, "
                f"holds={res['max_ratio'] <= bound * (1 + 1e-12)}\n")
        elif args.command == "slope-fit":
            recs = records_from_csv(args.csv.read_text())
            fit = fit_slope(recs, abscissa=args.abscissa, window=args.window,
                            error_key=args.error_key, floor=args.floor)
            sys.stdout.write(
                f"slope={fit.slope:.14e} lsq_slope={fit.lsq_slope:.14e} "
                f"r2={fit.r_squared:.6f} points={fit.n_points} "
                f"abscissa={fit.abscissa}\n")
        else:
            run_config(args.config, out_dir=args.out_dir)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except (ArithmeticError, np.linalg.LinAlgError, RuntimeError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    except (ValueError, KeyError) as exc:
        # the sweeps are validated before they run, so there it is a bug
        if args.command not in _VALIDATING:
            raise
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
