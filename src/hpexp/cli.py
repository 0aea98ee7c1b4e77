"""Command line entry point: ``hpexp <subcommand>``.

Each config kind of ``harness.KINDS`` is a sweep subcommand of the same
name, built from the kind's keys: key ``k`` is the option ``--k`` with its
underscores as dashes, of the key's type and choices, and required exactly
when the key is.  Three keys are spelled otherwise: ``proj_kind`` is
``--kind``, ``--family`` takes either case, and ``p_list`` is ``--p-list``
(comma separated) or else ``--p-max`` with ``--p-min`` (default 1).  A sweep
subcommand builds one sweep in the config format of ``hpexp run`` and goes
through the same validator and runner; an option not given is left out of
the sweep, so the kind's own default applies.  With --out PREFIX the config
runner writes PREFIX.csv and PREFIX.meta.json with the same meta fields as
``hpexp run``; without it a sweep prints CSV to stdout, but basis-count and
lemma-audit print their own tables (the lemma table names each row's
argmax).  sharp-ratio, slope-fit and run are not config kinds; slope-fit
takes the abscissa and the error key, and fits with ``harness``'s fixed
window and error floor.  Exit codes: 0 success, 1 usage or config error,
2 numerical failure.  A sweep's options are checked by the config validator
before it runs, so any other error raised inside a sweep is a bug and
propagates with its traceback; only sharp-ratio and slope-fit map their
functions' ``ValueError`` and ``KeyError`` to a usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import harness
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


def _add_sweep(sub, command: str, kind: harness.Kind) -> None:
    """The subcommand of one config kind: an option per key, and --out."""
    sp = sub.add_parser(command, help=kind.help)
    for k, key in kind.fields.items():
        if k == "p_list":
            degrees = sp.add_mutually_exclusive_group(required=key.required)
            degrees.add_argument("--p-list", type=key.type,
                                 help="comma separated degrees")
            degrees.add_argument("--p-max", type=int,
                                 help="degrees P_MIN..P_MAX")
            sp.add_argument("--p-min", type=int, help="default 1")
            continue
        sp.add_argument("--kind" if k == "proj_kind" else
                        "--" + k.replace("_", "-"), dest=k,
                        required=key.required,
                        type=str.upper if k == "family" else key.type,
                        choices=key.choices, help=key.text)
    sp.add_argument("--out", help="write PREFIX.csv and PREFIX.meta.json")


def _sweep(args) -> dict:
    """The config-format sweep of a subcommand; its options carry the key names."""
    fields = harness.KINDS[args.command].fields
    sw = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    if "p_list" in fields and args.p_list is None:
        sw["p_list"] = list(range(1 if args.p_min is None else args.p_min,
                                  args.p_max + 1))
    return {"name": Path(args.out).name if args.out else args.command,
            "kind": args.command, **sw}


def _build_parser() -> _Parser:
    parser = _Parser(prog="hpexp")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, kind in harness.KINDS.items():
        _add_sweep(sub, command, kind)

    sr = sub.add_parser("sharp-ratio", help="worst per-mode L2(P) ratio")
    sr.add_argument("--dim", type=int, required=True, choices=(1, 2, 3))
    sr.add_argument("--p", type=int, required=True)
    sr.add_argument("--s", type=int, required=True)

    sf = sub.add_parser("slope-fit", help="fit slopes from a sweep CSV")
    sf.add_argument("csv", type=Path)
    sf.add_argument("--abscissa", default="dof_root", choices=("p", "dof_root"))
    sf.add_argument("--error-key", default="l2")

    rn = sub.add_parser("run", help="execute a JSON sweep config")
    rn.add_argument("config", type=Path)
    rn.add_argument("--out-dir", default=".")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "p_list", None) is not None and args.p_min is not None:
        parser.error("--p-min goes with --p-max, not --p-list")
    try:
        if args.command in harness.KINDS:
            sw = _sweep(args)
            if args.out:
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
            from .bounds import phi, sharp_l2_ratio
            res = sharp_l2_ratio(args.dim, args.p, args.s)
            bound = phi(args.dim, args.p + 1, args.s)
            sys.stdout.write(
                f"d={args.dim} p={args.p} s={args.s}: max_ratio="
                f"{res['max_ratio']:.14e} at i={res['argmax']}, "
                f"phi(d,p+1,s)={bound:.14e}, "
                f"holds={res['max_ratio'] <= bound * (1 + 1e-12)}\n")
        elif args.command == "slope-fit":
            recs = records_from_csv(args.csv.read_text())
            fit = fit_slope(recs, abscissa=args.abscissa,
                            error_key=args.error_key)
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
