"""Command-line front end: configuration, persistence, reports and plots.

Every subcommand writes a manifest plus CSV/SVG artifacts into a
timestamped directory under the output root (--out-dir, the WAVECRIT_OUT
environment variable, or ./results).  Exit codes: 0 on success, 2 on a
verification failure (and argparse usage errors), 1 on runtime errors.
Numeric outputs are deterministic: rerunning with the same parameters
reproduces byte-identical CSV files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime as _dt
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .blowup import IterationConstants, build_ledger, divergence_onset
from .exponents import exponent_set, kernel_exponent
from .kernels import KernelConfig, free_wave_ball_integral, kernel_bounds_check
from .modulus import (
    DoubleLogGlobal,
    IteratedLogBlowup,
    LogOnePlus,
    LogPower,
    PowerLaw,
    TripleLogGlobal,
    axioms_check,
    classify_strauss_threshold,
    convexity_check,
    loglog_bound_check,
    make_spec,
)
from .solver import CharacteristicGrid, default_bump, lifespan_sweep, march
from .weights import (
    data_norms,
    decay_profile_check,
    key_integral,
    zone_bound_check,
)

_FAMILIES = {
    "powerlaw": PowerLaw,
    "log1p": LogOnePlus,
    "logpower": LogPower,
    "iterlog": IteratedLogBlowup,
    "doublelog": DoubleLogGlobal,
    "triplelog": TripleLogGlobal,
}


# --------------------------------------------------------------------------
# persistence helpers

def _out_root(args) -> Path:
    if args.out_dir:
        return Path(args.out_dir)
    return Path(os.environ.get("WAVECRIT_OUT", "results"))


def _result_dir(root: Path, command: str) -> Path:
    stamp = _dt.datetime.now(_dt.timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    path = root / command / stamp
    suffix = 0
    while path.exists():
        suffix += 1
        path = root / command / f"{stamp}-{suffix}"
    path.mkdir(parents=True)
    return path


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _fmt(x):
    if isinstance(x, float):  # includes numpy float64; normalize its repr
        return repr(float(x))
    return x


def _svg_polyline(path: Path, points, title: str, width=640, height=400) -> None:
    pts = [(float(x), float(y)) for x, y in points if math.isfinite(y)]
    if not pts:
        path.write_text(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"/>\n')
        return
    xs, ys = zip(*pts)
    x0, x1 = min(xs), max(xs) or 1.0
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 40

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    poly = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
    path.write_text(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
        f'<rect width="100%" height="100%" fill="white"/>\n'
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>\n'
        f'<polyline points="{poly}" fill="none" stroke="#1f4e8c" stroke-width="1.5"/>\n'
        "</svg>\n"
    )


def _svg_heatmap(path: Path, matrix, title: str, max_cells=120) -> None:
    m = np.asarray(matrix, dtype=float)
    si = max(1, m.shape[0] // max_cells)
    sj = max(1, m.shape[1] // max_cells)
    m = m[::si, ::sj]
    top = float(np.max(m)) or 1.0
    cell = 4
    h, w = m.shape
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w * cell}" height="{h * cell + 24}">',
        f'<text x="{w * cell // 2}" y="14" text-anchor="middle" font-size="12">{title}</text>',
    ]
    for i in range(h):
        for j in range(w):
            v = m[i, j] / top
            shade = int(255 * (1.0 - v))
            parts.append(
                f'<rect x="{j * cell}" y="{(h - 1 - i) * cell + 24}" width="{cell}" '
                f'height="{cell}" fill="rgb({shade},{shade},255)"/>'
            )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def _persist(args, parameters: dict, writers) -> Path:
    """Run the file writers in a fresh result directory and write the manifest."""
    started = _dt.datetime.now(_dt.timezone.utc).isoformat()
    parameters = {**args.modulus, **parameters}
    out = _result_dir(_out_root(args), args.command)
    written = []
    for name, writer in writers:
        writer(out / name)
        written.append(name)
    digest = hashlib.sha256(
        json.dumps(parameters, sort_keys=True).encode()
    ).hexdigest()
    manifest = {
        "command": args.command,
        "parameters": parameters,
        "artifact_version": __version__,
        "started_utc": started,
        "finished_utc": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "input_digest": digest,
        "outputs": sorted(written + ["manifest.json"]),
    }
    _write_json(out / "manifest.json", manifest)
    if not args.quiet:
        print(f"results written to {out}", file=sys.stderr)
    return out


# --------------------------------------------------------------------------
# family construction

def _family_from_args(parser, args):
    """The family named by --family, built from the fields whose flags are
    set; every other field takes its default in ``modulus``."""
    family = _FAMILIES[args.family]
    values = {}
    for f in dataclasses.fields(family):
        value = getattr(args, f.name)
        if value is not None:
            values[f.name] = value
        elif f.default is dataclasses.MISSING:
            parser.error(f"--{f.name} is required for family {args.family!r}")
    try:
        return family(**values)
    except ValueError as exc:
        parser.error(str(exc))


def _spec_from_args(parser, args):
    """The spec of the family flags; the family, its fields and the spec's
    tau0 join the manifest parameters as ``args.modulus``."""
    family = _family_from_args(parser, args)
    try:
        spec = make_spec(family, tau0=args.tau0)
    except ValueError as exc:
        parser.error(str(exc))
    args.modulus = {"family": args.family, **dataclasses.asdict(family), "tau0": spec.tau0}
    return spec


# --------------------------------------------------------------------------
# subcommands: each returns (payload, manifest parameters, writers, exit code)

def _cmd_exponents(parser, args):
    if args.n == 1:
        payload = {"n": 1, "p_strauss": "infinite", "p_conjugate": 1.0,
                   "q": None, "kappa": None}
    else:
        es = exponent_set(args.n)
        payload = {"n": es.n, "p_strauss": es.p_strauss,
                   "p_conjugate": es.p_conjugate, "q": es.q, "kappa": es.kappa}
    return payload, {"n": args.n}, [("exponents.json", lambda p: _write_json(p, payload))], 0


def _cmd_mu(parser, args):
    spec = _spec_from_args(parser, args)
    n = args.n
    axioms = axioms_check(spec)
    # convexity of the companion is the near-zero hypothesis; stay within tau0
    top = min(spec.tau0, 2.0)
    grid = np.linspace(-top, top, 201)
    convex = convexity_check(spec, n, grid)
    verdict = classify_strauss_threshold(spec, n)
    loglog = loglog_bound_check(spec)
    payload = {
        "family": args.family,
        "axioms_pass": bool(axioms.passed),
        "g_convex": bool(convex.passed),
        "threshold_class": verdict.threshold_class,
        "threshold_estimate": None if math.isinf(verdict.estimate) else verdict.estimate,
        "loglog_bound_pass": bool(loglog.passed),
    }
    writers = [("report.json", lambda p: _write_json(p, payload)),
               ("threshold_samples.csv",
                lambda p: _write_csv(p, ("tau", "product"), verdict.samples))]
    code = 0 if payload["axioms_pass"] and payload["g_convex"] else 2
    return payload, {"n": n}, writers, code


def _cmd_lemmas(parser, args):
    if args.n < 2:
        parser.error("--n must be at least 2 for the kernel bound checks")
    if args.which == "ball-integral":
        ratios = []
        for t in np.linspace(0.0, 100.0, 201):
            value = free_wave_ball_integral(args.n, 1.0, float(t))
            ratios.append((float(t), value / (1.0 + t) ** ((args.n - 1) / 2.0)))
        lo = min(r for _, r in ratios)
        hi = max(r for _, r in ratios)
        payload = {"which": "ball-integral", "n": args.n, "bracket_low": lo,
                   "bracket_high": hi, "dynamic_range": hi / lo,
                   "pass": bool(hi / lo <= 20.0)}
        rows = ratios
        header = ("t", "ratio")
    else:
        cfg = KernelConfig(n=args.n, lambda0=args.lambda0, R=1.0, quad_points=1024)
        report = kernel_bounds_check(cfg, kernel_exponent(args.n))
        payload = {"which": "kernel-bounds", "n": args.n, "a0": report.a0,
                   "b0": report.b0, "b1": report.b1, "b2": report.b2,
                   "region": report.region, "pass": bool(report.passed)}
        rows = report.samples
        header = report.columns
    writers = [("report.json", lambda p: _write_json(p, payload)),
               ("ratios.csv", lambda p: _write_csv(p, header, rows))]
    params = {"which": args.which, "n": args.n, "lambda0": args.lambda0}
    return payload, params, writers, 0 if payload["pass"] else 2


def _cmd_sequences(parser, args):
    if args.n < 2:
        parser.error("--n must be at least 2")
    ledger = build_ledger(args.n, IterationConstants(), args.J)
    rows = ledger.rows
    payload = {"n": args.n, "J": args.J, "rows": len(rows),
               "log_c5": ledger.log_c5, "j1": ledger.j1}
    writers = [("ledger.csv", lambda p: _write_csv(
        p, ("j", "ell_2j", "a_j", "b_j", "sigma_j", "log_m_j"), rows))]
    return payload, {"n": args.n, "J": args.J}, writers, 0


def _cmd_onset(parser, args):
    spec = _spec_from_args(parser, args)
    onset = divergence_onset(3, IterationConstants(c6=args.c6, c7=args.c7),
                             spec, args.tmax)
    payload = {"family": args.family, "tmax": args.tmax, "onset_t": onset}
    params = {"tmax": args.tmax, "c6": args.c6, "c7": args.c7}
    return payload, params, [("onset.json", lambda p: _write_json(p, payload))], 0


def _cmd_solve(parser, args):
    spec = _spec_from_args(parser, args)
    data = default_bump(args.eps)
    grid = CharacteristicGrid.cover(args.h, args.horizon, data.support_radius)
    run = march(data, spec, grid, cap=args.cap)
    params = {"eps": args.eps, "h": args.h, "horizon": args.horizon, "cap": args.cap}
    payload = {"h": grid.h, "t_levels": grid.t_levels, "r_nodes": grid.r_nodes,
               "cap": args.cap, "amplitude": data.amplitude, "status": run.status,
               "t_detect": run.t_detect}
    n_levels = run.field.shape[0]
    keep = sorted(set(np.linspace(0, n_levels - 1, min(25, n_levels)).astype(int)))
    rows = []
    for i in keep:
        t = float(run.times[i])
        for j in range(0, run.grid.r_nodes, max(1, run.grid.r_nodes // 200)):
            rows.append((t, float(run.radii[j]), float(run.field[i, j])))
    writers = [("run.json", lambda p: _write_json(p, payload)),
               ("field.csv", lambda p: _write_csv(p, ("t", "r", "u"), rows)),
               ("field.svg", lambda p: _svg_heatmap(
                   p, np.abs(run.field), f"|u|, status={run.status}"))]
    return payload, params, writers, 0


def _cmd_lifespan(parser, args):
    spec = _spec_from_args(parser, args)
    try:
        eps_list = [float(v) for v in args.eps_list.split(",")]
    except ValueError:
        parser.error(f"bad --eps-list {args.eps_list!r}")
    data = default_bump(1.0)
    grid = CharacteristicGrid.cover(args.h, args.horizon, data.support_radius)
    rows = lifespan_sweep(data, spec, eps_list, grid, cap=args.cap)
    table = [(r.eps, r.t_detect if r.t_detect is not None else args.horizon, r.status)
             for r in rows]
    payload = {"rows": [{"eps": r.eps, "t_detect": r.t_detect, "status": r.status}
                        for r in rows]}
    params = {"eps_list": eps_list, "h": args.h, "horizon": args.horizon, "cap": args.cap}
    writers = [("lifespan.csv", lambda p: _write_csv(p, ("eps", "t", "status"), table)),
               ("lifespan.svg", lambda p: _svg_polyline(
                   p, [(a, b) for a, b, _ in table], "detection time vs amplitude"))]
    return payload, params, writers, 0


def _cmd_verify_global(parser, args):
    spec = _spec_from_args(parser, args)
    verdict = classify_strauss_threshold(spec, 3)
    data = default_bump(args.eps)
    grid = CharacteristicGrid.cover(args.h, args.horizon, data.support_radius)
    norms = data_norms(data)
    failures = []
    zones = None
    if verdict.threshold_class != "zero":
        failures.append(f"threshold class is {verdict.threshold_class}, not zero")
        profile = None
        norm = None
    else:
        zones = zone_bound_check(spec, args.eps0,
                                 [(100.0, 10.0), (0.5, 0.9), (150.0, 100.0)])
        if not zones.passed:
            failures.append("zone bound check failed")
        run = march(data, spec, grid, cap=args.cap)
        if run.status != "completed":
            failures.append(f"run status {run.status}")
            profile = None
            norm = None
        else:
            profile = decay_profile_check(run, norms)
            norm = max(level for _, level in profile.samples)
            if not profile.passed:
                failures.append("decay profile grew over the outer half")
            if not math.isfinite(norm):
                failures.append("weighted norm not finite")
    payload = {
        "family": args.family,
        "threshold_class": verdict.threshold_class,
        "weighted_sup_norm": norm,
        "data_norms": list(norms),
        "decay_constant": profile.fitted_constant if profile else None,
        "zone_sups": zones.region if zones else None,
        "pass": not failures,
        "failures": failures,
    }
    writers = [("report.json", lambda p: _write_json(p, payload))]
    if profile is not None:
        writers.append(("profile.csv", lambda p: _write_csv(
            p, profile.columns, profile.samples)))
    params = {"eps": args.eps, "h": args.h, "horizon": args.horizon,
              "eps0": args.eps0, "cap": args.cap}
    return payload, params, writers, 0 if not failures else 2


def _cmd_key_integral(parser, args):
    spec = _spec_from_args(parser, args)
    try:
        xi_list = [float(v) for v in args.xi_list.split(",")]
    except ValueError:
        parser.error(f"bad --xi-list {args.xi_list!r}")
    rows = []
    for xi in xi_list:
        res = key_integral(xi, args.eps0, spec)
        rows.append((xi, res.value, res.ratio))
    ratios = [r for _, _, r in rows if r > 0.0]
    payload = {"family": args.family, "eps0": args.eps0,
               "max_min_ratio": (max(ratios) / min(ratios)) if ratios else None}
    writers = [("key_integral.csv", lambda p: _write_csv(p, ("xi", "I", "ratio"), rows)),
               ("summary.json", lambda p: _write_json(p, payload))]
    return payload, {"xi_list": xi_list, "eps0": args.eps0}, writers, 0


# --------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=argparse.SUPPRESS,
                        help="output root (default: $WAVECRIT_OUT or ./results)")
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="wavecrit",
        description="numerical laboratory for critical-regularity wave equations",
    )
    parser.set_defaults(out_dir=None, quiet=False, modulus={})
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p):
        p.add_argument("--family", choices=_FAMILIES, required=True)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--cl", type=float, default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--tau0", type=float, default=None)
        p.add_argument("--n", type=int, default=3)

    p = sub.add_parser("exponents", parents=[common], help="exponent set for a dimension")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_exponents)

    p = sub.add_parser("mu", parents=[common], help="modulus family checks")
    p.add_argument("action", choices=["check"])
    add_family(p)
    p.set_defaults(func=_cmd_mu)

    p = sub.add_parser("lemmas", parents=[common], help="kernel and ball-integral bound sweeps")
    p.add_argument("action", choices=["verify"])
    p.add_argument("--which", choices=["ball-integral", "kernel-bounds"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda0", type=float, default=1.0)
    p.set_defaults(func=_cmd_lemmas)

    p = sub.add_parser("sequences", parents=[common], help="iteration ledger CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--J", type=int, default=30)
    p.set_defaults(func=_cmd_sequences)

    p = sub.add_parser("onset", parents=[common], help="divergence onset prediction")
    add_family(p)
    p.add_argument("--tmax", type=float, default=1e6)
    p.add_argument("--c6", type=float, default=1.0)
    p.add_argument("--c7", type=float, default=1.0)
    p.set_defaults(func=_cmd_onset)

    p = sub.add_parser("solve", parents=[common], help="march one run and persist the field")
    add_family(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--cap", type=float, default=1e6)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("lifespan", parents=[common], help="detection-time sweep over amplitudes")
    add_family(p)
    p.add_argument("--eps-list", required=True)
    p.add_argument("--h", type=float, default=0.02)
    p.add_argument("--horizon", type=float, default=15.0)
    p.add_argument("--cap", type=float, default=1e6)
    p.set_defaults(func=_cmd_lifespan)

    p = sub.add_parser("verify-global", parents=[common], help="global-side weighted decay verification")
    add_family(p)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--eps0", type=float, default=0.05)
    p.add_argument("--h", type=float, default=0.0625)
    p.add_argument("--horizon", type=float, default=100.0)
    p.add_argument("--cap", type=float, default=1e6)
    p.set_defaults(func=_cmd_verify_global)

    p = sub.add_parser("key-integral", parents=[common], help="cone-interaction integral sweep")
    add_family(p)
    p.add_argument("--xi-list", required=True)
    p.add_argument("--eps0", type=float, default=0.05)
    p.set_defaults(func=_cmd_key_integral)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, parameters, writers, code = args.func(parser, args)
        if not args.quiet:
            print(json.dumps(payload, sort_keys=True))
        _persist(args, parameters, writers)
        return code
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
