"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 numerical
failure.  Diagnostics go to stderr; data to stdout or --out.  Every numeric
printed to stdout uses full round-trippable precision.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import lab, magnetostatics, minimize, walls
from .errors import VerificationError, WallscaleError
from .kernels import CrossSection, a_c, i_kernel, verify_lemma32

__all__ = ["run", "main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_NUMERICAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _fmt(value: float) -> str:
    return repr(float(value))


def _parse_grid(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad numeric list {text!r}") from exc


def _emit(text: str, args: argparse.Namespace) -> None:
    if args.out:
        Path(args.out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _add_global_options(parser: argparse.ArgumentParser, leaf: bool) -> None:
    # leaf subparsers use SUPPRESS so values parsed at the root are not
    # clobbered by defaults; flags are accepted before or after subcommands
    sup = argparse.SUPPRESS

    def dflt(value):
        return sup if leaf else value

    parser.add_argument("--out", type=str, default=dflt(None), help="write data output to this path")
    parser.add_argument("--format", choices=("csv", "json"), default=dflt("csv"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wallscale", description=__doc__)
    _add_global_options(parser, leaf=False)
    sub = parser.add_subparsers(dest="command", required=True)

    kern = sub.add_parser("kernel", help="kernel evaluations and checks")
    ksub = kern.add_subparsers(dest="subcommand", required=True)
    k_ac = ksub.add_parser("a_c", help="aspect-ratio kernel coefficient")
    k_ac.add_argument("--c", type=float, required=True)
    k_i = ksub.add_parser("i", help="surface-charge kernel I at a frequency")
    k_i.add_argument("--l", type=float, required=True)
    k_i.add_argument("--d", type=float, required=True)
    k_i.add_argument("--x", type=float, required=True)
    k_i.add_argument("--swap", action="store_true", help="compute I(d,l,x) instead of I(l,d,x)")
    k_v = ksub.add_parser("verify", help="check the two-sided kernel bounds")
    k_v.add_argument("--l", type=float, required=True)
    k_v.add_argument("--d", type=float, required=True)
    k_v.add_argument("--x-samples", type=str, default=None, help="comma list; default 0,±1/(2l),±1/l")

    wall = sub.add_parser("wall", help="closed-form wall profiles")
    wsub = wall.add_subparsers(dest="subcommand", required=True)
    w_e = wsub.add_parser("eval", help="evaluate the wall at one position")
    for flag, req, dflt in (("--alpha", True, None), ("--beta", False, 1.0), ("--theta", False, 0.0), ("--x", True, None)):
        w_e.add_argument(flag, type=float, required=req, default=dflt)
    w_s = wsub.add_parser("sample", help="sample the wall to a profile CSV")
    w_s.add_argument("--alpha", type=float, required=True)
    w_s.add_argument("--beta", type=float, default=1.0)
    w_s.add_argument("--theta", type=float, default=0.0)
    w_s.add_argument("--half-length", type=float, required=True)
    w_s.add_argument("--nodes", type=int, required=True)

    energy = sub.add_parser("energy", help="profile energies")
    esub = energy.add_subparsers(dest="subcommand", required=True)
    e_r = esub.add_parser("reduced", help="reduced 1-D energy of a profile CSV")
    e_r.add_argument("--profile", type=str, required=True)
    group = e_r.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", type=float, default=None)
    group.add_argument("--e0", action="store_true", help="limit-energy weights (4, 4/pi)")
    e_r.add_argument("--allow-m3", action="store_true", help="with --e0, lift the m3=0 constraint")
    e_f = esub.add_parser("full", help="full energy breakdown of a profile CSV")
    e_f.add_argument("--profile", type=str, required=True)
    e_f.add_argument("--l", type=float, required=True)
    e_f.add_argument("--d", type=float, required=True)
    e_f.add_argument("--e-v-exact", action="store_true", help="also evaluate the spectral volume term")

    mini = sub.add_parser("minimize", help="energy minimization")
    msub = mini.add_subparsers(dest="subcommand", required=True)
    m_r = msub.add_parser("reduced", help="projected descent from an arc initialization")
    mgroup = m_r.add_mutually_exclusive_group(required=True)
    mgroup.add_argument("--alpha", type=float, default=None)
    mgroup.add_argument("--e0", action="store_true")
    m_r.add_argument("--half-length", type=float, required=True)
    m_r.add_argument("--nodes", type=int, required=True)
    m_r.add_argument("--trace", type=str, default=None, help="write per-iteration CSV trace here")
    m_a = msub.add_parser("ansatz", help="scale search over the recovery family")
    m_a.add_argument("--l", type=float, required=True)
    m_a.add_argument("--d", type=float, required=True)
    m_a.add_argument("--scales", type=str, default=None, help="comma list of probed scales")

    sweep = sub.add_parser("sweep", help="parameter sweeps")
    ssub = sweep.add_subparsers(dest="subcommand", required=True)
    s_r = ssub.add_parser("rate", help="rate-of-convergence sweep over aspect ratios")
    s_r.add_argument("--c-grid", type=str, required=True, help="comma list of aspect ratios")
    s_r.add_argument(
        "--l", type=str, required=True,
        help="half-width, or comma list of half-widths to separate the two rate terms",
    )
    s_c = ssub.add_parser("corollary", help="a_c/(c|ln c|) -> 1/2 trend table")
    s_c.add_argument("--c-grid", type=str, required=True)

    for leaf in (k_ac, k_i, k_v, w_e, w_s, e_r, e_f, m_r, m_a, s_r, s_c):
        _add_global_options(leaf, leaf=True)
    return parser


def _cmd_kernel(args: argparse.Namespace) -> int:
    if args.subcommand == "a_c":
        _emit(_fmt(a_c(args.c)), args)
        return EXIT_OK
    if args.subcommand == "i":
        cs = CrossSection(l=args.l, d=args.d)
        _emit(_fmt(i_kernel(cs, args.swap, args.x)), args)
        return EXIT_OK
    cs = CrossSection(l=args.l, d=args.d)
    if args.x_samples is None:
        inv_l = 1.0 / cs.l
        samples = [0.0, 0.5 * inv_l, -0.5 * inv_l, inv_l, -inv_l]
    else:
        samples = _parse_grid(args.x_samples)
    report = verify_lemma32(cs, samples)
    lines = ["x,kernel_value,upper_i_margin,upper_ii_margin,lower_margin,passed"]
    for s in report.samples:
        lower = "" if s.lower_margin is None else _fmt(s.lower_margin)
        lines.append(
            f"{_fmt(s.x)},{_fmt(s.kernel_value)},{_fmt(s.upper_i_margin)},"
            f"{_fmt(s.upper_ii_margin)},{lower},{str(s.passed).lower()}"
        )
    _emit("\n".join(lines), args)
    if not report.passed:
        print("kernel bound verification failed", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _cmd_wall(args: argparse.Namespace) -> int:
    w = walls.ClosedFormWall(alpha=args.alpha, beta=args.beta, theta=args.theta)
    if args.subcommand == "eval":
        v = walls.eval_wall(w, args.x)
        _emit(" ".join(_fmt(t) for t in v), args)
        return EXIT_OK
    p = walls.sample_wall(w, args.half_length, args.nodes)
    if args.out:
        p.to_csv(args.out)
    else:
        lines = ["x,m1,m2,m3"]
        for xi, mi in zip(p.x, p.m):
            lines.append(",".join([_fmt(xi)] + [_fmt(v) for v in mi]))
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_energy(args: argparse.Namespace) -> int:
    p = walls.Profile1D.from_csv(args.profile)
    if args.subcommand == "reduced":
        if args.e0:
            weights = walls.ReducedEnergyWeights(forbid_m3=not args.allow_m3)
            value = walls.reduced_energy_E0(p, weights)
        else:
            value = walls.reduced_energy_alpha(p, args.alpha)
        _emit(_fmt(value) if value != float("inf") else "inf", args)
        return EXIT_OK
    cs = CrossSection(l=args.l, d=args.d)
    br = magnetostatics.full_energy(p, cs, include_e_v_exact=args.e_v_exact)
    lines = [
        f"exchange,{_fmt(br.exchange)}",
        f"e_s,{_fmt(br.e_s)}",
        f"e_v_bound,{_fmt(br.e_v_bound)}",
    ]
    if br.e_v_exact is not None:
        lines.append(f"e_v_exact,{_fmt(br.e_v_exact)}")
    lines += [
        f"total_upper,{_fmt(br.total_upper)}",
        f"rescaled_upper,{_fmt(br.rescaled_upper)}",
    ]
    _emit("\n".join(lines), args)
    return EXIT_OK


def _cmd_minimize(args: argparse.Namespace) -> int:
    if args.subcommand == "reduced":
        init = minimize.arc_profile(args.half_length, args.nodes)
        weights = walls.ReducedEnergyWeights(forbid_m3=True) if args.e0 else args.alpha
        profile, energy = minimize.minimize_reduced(
            init, weights, trace_path=args.trace
        )
        if args.out:
            profile.to_csv(args.out)
            sys.stdout.write(_fmt(energy) + "\n")
        else:
            _emit(_fmt(energy), args)
        return EXIT_OK
    cs = CrossSection(l=args.l, d=args.d)
    scales = None if args.scales is None else np.asarray(_parse_grid(args.scales))
    res = minimize.minimize_full_ansatz(cs, scale_grid=scales)
    _emit(
        f"best_scale,{_fmt(res.best_scale)}\nbest_beta,{_fmt(res.best_beta)}\n"
        f"energy,{_fmt(res.energy)}\nevaluations,{res.evaluations}\nkernel_nodes,{res.kernel_nodes}",
        args,
    )
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.c_grid)
    if args.subcommand == "rate":
        cases = [
            CrossSection(l=l, d=c * l) for l in _parse_grid(args.l) for c in grid
        ]
        records = lab.rate_sweep(cases)
        out_path = args.out or "rate_sweep." + args.format
        lab.emit_report(records, args.format, out_path)
        sys.stdout.write(f"{out_path}\n")
        if any(np.isnan(r.rescaled_min_upper) for r in records):
            print("numerical failure: no energy for at least one case", file=sys.stderr)
            return EXIT_NUMERICAL
        if not all(r.passed for r in records):
            print("rate bound violated for at least one case", file=sys.stderr)
            return EXIT_VERIFICATION
        return EXIT_OK
    report = lab.corollary33_report(grid)
    lines = ["c,ratio,bracket_low,bracket_high,in_bracket"]
    for row in report.rows:
        lines.append(
            f"{_fmt(row.c)},{_fmt(row.ratio)},{_fmt(row.bracket_low)},"
            f"{_fmt(row.bracket_high)},{str(row.in_bracket).lower()}"
        )
    lines.append(f"deviations_decreasing,{str(report.deviations_decreasing).lower()}")
    _emit("\n".join(lines), args)
    if not report.deviations_decreasing:
        print("scaling-ratio deviations not decreasing along the grid", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "kernel":
            return _cmd_kernel(args)
        if args.command == "wall":
            return _cmd_wall(args)
        if args.command == "energy":
            return _cmd_energy(args)
        if args.command == "minimize":
            return _cmd_minimize(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except WallscaleError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
