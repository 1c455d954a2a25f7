"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 numerical
failure.  Diagnostics go to stderr; data to stdout or --out, and a failed
check writes its data before it exits 2.  Values and tables are written by
walls._cell and walls._table_text, the package's one table format, with
numbers at full round-trippable precision.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path

from . import lab, magnetostatics, minimize, walls
from .errors import VerificationError, WallscaleError
from .kernels import CrossSection, Lemma32Sample, a_c, i_kernel, verify_lemma32
from .walls import _cell, _table_text

__all__ = ["run", "main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_NUMERICAL = 3


class _UsageError(Exception):
    pass


class _HelpShown(Exception):
    """argparse printed --help, which is a success."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise _UsageError(message)

    def exit(self, status: int = 0, message: str | None = None) -> None:  # noqa: D102 - argparse hook, only --help reaches it
        raise _HelpShown


def _parse_grid(text: str) -> list[float]:
    try:
        grid = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad numeric list {text!r}") from exc
    if not grid:
        raise _UsageError(f"empty numeric list {text!r}")
    return grid


def _emit(text: str, args: argparse.Namespace) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _section(args: argparse.Namespace) -> CrossSection:
    return CrossSection(l=args.l, d=args.d)


def _wall(args: argparse.Namespace) -> walls.ClosedFormWall:
    return walls.ClosedFormWall(alpha=args.alpha, beta=args.beta, theta=args.theta)


# command handlers write their data and return nothing; a failed check raises
# VerificationError after its data is written
def _kernel_verify(args: argparse.Namespace) -> None:
    cs = _section(args)
    if args.x_samples is None:
        inv_l = 1.0 / cs.l
        samples = [0.0, 0.5 * inv_l, -0.5 * inv_l, inv_l, -inv_l]
    else:
        samples = _parse_grid(args.x_samples)
    report = verify_lemma32(cs, samples)
    columns = [f.name for f in fields(Lemma32Sample) if f.name != "budget"]
    _emit(_table_text(columns, ([getattr(s, name) for name in columns] for s in report.samples)), args)
    if not report.passed:
        raise VerificationError("kernel bound verification failed")


def _energy_reduced(args: argparse.Namespace) -> None:
    p = walls.Profile1D.from_csv(args.profile)
    if args.e0:
        value = walls.reduced_energy_E0(p, walls.ReducedEnergyWeights(forbid_m3=not args.allow_m3))
    else:
        value = walls.reduced_energy_alpha(p, args.alpha)
    _emit(_cell(value), args)


def _energy_full(args: argparse.Namespace) -> None:
    p = walls.Profile1D.from_csv(args.profile)
    br = magnetostatics.full_energy(p, _section(args), include_e_v_exact=args.e_v_exact)
    _emit(_table_text(None, [(k, v) for k, v in asdict(br).items() if v is not None]), args)


def _minimize_reduced(args: argparse.Namespace) -> None:
    init = minimize.arc_profile(args.half_length, args.nodes)
    weights = walls.ReducedEnergyWeights(forbid_m3=True) if args.e0 else args.alpha
    profile, energy = minimize.minimize_reduced(init, weights, trace_path=args.trace)
    if args.out:
        profile.to_csv(args.out)
    sys.stdout.write(_cell(energy) + "\n")


def _sweep_rate(args: argparse.Namespace) -> None:
    grid = _parse_grid(args.c_grid)
    records = lab.rate_sweep([CrossSection(l=l, d=c * l) for l in _parse_grid(args.l) for c in grid])
    out_path = args.out or "rate_sweep." + args.format
    lab.emit_report(records, args.format, out_path)
    sys.stdout.write(f"{out_path}\n")
    if any(math.isnan(r.rescaled_min_upper) for r in records):
        raise WallscaleError("no energy for at least one case")
    if not all(r.passed for r in records):
        raise VerificationError("rate bound violated for at least one case")


def _sweep_corollary(args: argparse.Namespace) -> None:
    report = lab.corollary33_report(_parse_grid(args.c_grid))
    rows = [*map(astuple, report.rows), ("deviations_decreasing", report.deviations_decreasing)]
    _emit(_table_text([f.name for f in fields(lab.CorollaryRow)], rows), args)
    if not report.deviations_decreasing:
        raise VerificationError("scaling-ratio deviations not decreasing along the grid")


def _add_global_options(parser: argparse.ArgumentParser, leaf: bool) -> None:
    # leaf subparsers use SUPPRESS so values parsed at the root are not
    # clobbered by defaults; flags are accepted before or after subcommands
    sup = argparse.SUPPRESS
    parser.add_argument("--out", type=str, default=sup if leaf else None, help="write data output to this path")
    parser.add_argument("--format", choices=("csv", "json"), default=sup if leaf else "csv")


def _leaf(sub, name: str, help: str, handler) -> argparse.ArgumentParser:
    """A leaf command's parser, which binds handler(args) to its parsed arguments."""
    leaf = sub.add_parser(name, help=help)
    leaf.set_defaults(handler=handler)
    return leaf


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wallscale", description=__doc__)
    _add_global_options(parser, leaf=False)
    sub = parser.add_subparsers(dest="command", required=True)

    kern = sub.add_parser("kernel", help="kernel evaluations and checks")
    ksub = kern.add_subparsers(dest="subcommand", required=True)
    k_ac = _leaf(ksub, "a_c", "aspect-ratio kernel coefficient", lambda args: _emit(_cell(a_c(args.c)), args))
    k_ac.add_argument("--c", type=float, required=True)
    k_i = _leaf(ksub, "i", "surface-charge kernel I at a frequency",
                lambda args: _emit(_cell(i_kernel(_section(args), args.swap, args.x)), args))
    k_i.add_argument("--l", type=float, required=True)
    k_i.add_argument("--d", type=float, required=True)
    k_i.add_argument("--x", type=float, required=True)
    k_i.add_argument("--swap", action="store_true", help="compute I(d,l,x) instead of I(l,d,x)")
    k_v = _leaf(ksub, "verify", "check the two-sided kernel bounds", _kernel_verify)
    k_v.add_argument("--l", type=float, required=True)
    k_v.add_argument("--d", type=float, required=True)
    k_v.add_argument("--x-samples", type=str, default=None, help="comma list; default 0,±1/(2l),±1/l")

    wall = sub.add_parser("wall", help="closed-form wall profiles")
    wsub = wall.add_subparsers(dest="subcommand", required=True)
    w_e = _leaf(wsub, "eval", "evaluate the wall at one position",
                lambda args: _emit(" ".join(map(_cell, walls.eval_wall(_wall(args), args.x))), args))
    for flag, req, dflt in (("--alpha", True, None), ("--beta", False, 1.0), ("--theta", False, 0.0), ("--x", True, None)):
        w_e.add_argument(flag, type=float, required=req, default=dflt)
    w_s = _leaf(wsub, "sample", "sample the wall to a profile CSV",
                lambda args: _emit(walls.sample_wall(_wall(args), args.half_length, args.nodes)._csv_text(), args))
    w_s.add_argument("--alpha", type=float, required=True)
    w_s.add_argument("--beta", type=float, default=1.0)
    w_s.add_argument("--theta", type=float, default=0.0)
    w_s.add_argument("--half-length", type=float, required=True)
    w_s.add_argument("--nodes", type=int, required=True)

    energy = sub.add_parser("energy", help="profile energies")
    esub = energy.add_subparsers(dest="subcommand", required=True)
    e_r = _leaf(esub, "reduced", "reduced 1-D energy of a profile CSV", _energy_reduced)
    e_r.add_argument("--profile", type=str, required=True)
    group = e_r.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", type=float, default=None)
    group.add_argument("--e0", action="store_true", help="limit-energy weights (4, 4/pi)")
    e_r.add_argument("--allow-m3", action="store_true", help="with --e0, lift the m3=0 constraint")
    e_f = _leaf(esub, "full", "full energy breakdown of a profile CSV", _energy_full)
    e_f.add_argument("--profile", type=str, required=True)
    e_f.add_argument("--l", type=float, required=True)
    e_f.add_argument("--d", type=float, required=True)
    e_f.add_argument("--e-v-exact", action="store_true", help="also evaluate the real-space lag-sum volume term")

    mini = sub.add_parser("minimize", help="energy minimization")
    msub = mini.add_subparsers(dest="subcommand", required=True)
    m_r = _leaf(msub, "reduced", "projected descent from an arc initialization", _minimize_reduced)
    mgroup = m_r.add_mutually_exclusive_group(required=True)
    mgroup.add_argument("--alpha", type=float, default=None)
    mgroup.add_argument("--e0", action="store_true")
    m_r.add_argument("--half-length", type=float, required=True)
    m_r.add_argument("--nodes", type=int, required=True)
    m_r.add_argument("--trace", type=str, default=None, help="write per-iteration CSV trace here")
    m_a = _leaf(msub, "ansatz", "scale search over the recovery family",
                lambda args: _emit(_table_text(None, asdict(minimize.minimize_full_ansatz(_section(args))).items()), args))
    m_a.add_argument("--l", type=float, required=True)
    m_a.add_argument("--d", type=float, required=True)

    sweep = sub.add_parser("sweep", help="parameter sweeps")
    ssub = sweep.add_subparsers(dest="subcommand", required=True)
    s_r = _leaf(ssub, "rate", "rate-of-convergence sweep over aspect ratios", _sweep_rate)
    s_r.add_argument("--c-grid", type=str, required=True, help="comma list of aspect ratios")
    s_r.add_argument(
        "--l", type=str, required=True,
        help="half-width, or comma list of half-widths to separate the two rate terms",
    )
    s_c = _leaf(ssub, "corollary", "a_c/(c|ln c|) -> 1/2 trend table", _sweep_corollary)
    s_c.add_argument("--c-grid", type=str, required=True)

    for leaf in (k_ac, k_i, k_v, w_e, w_s, e_r, e_f, m_r, m_a, s_r, s_c):
        _add_global_options(leaf, leaf=True)
    return parser


def run(argv: list[str]) -> int:
    """Parse argv and run its command's handler; the one place that maps the
    outcome to an exit code."""
    try:
        args = build_parser().parse_args(argv)
        args.handler(args)
    except _HelpShown:
        return EXIT_OK
    except (_UsageError, ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except WallscaleError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
