"""Command-line front end: configuration, persistence, reports and plots.

Each subcommand is declared once, in ``build_parser``, and its parsed
options are its manifest ``parameters``: the family flags enter resolved
(the family, every field of it and the modulus cutoff tau0 actually used),
so a new flag reaches the ``input_digest`` with no further edit.  A command
returns its payload and the content of each file; ``_persist`` renders them
all before it creates the timestamped result directory under the output
root (--out-dir, the WAVECRIT_OUT environment variable, or ./results), so a
failure while building a file leaves no result directory.  Exit codes: 0 on
success, 2 on a verification failure (and argparse usage errors, among them
a family flag the family does not have), 1 on runtime errors.  Numeric
outputs are deterministic: rerunning with the same parameters reproduces
byte-identical CSV files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime as _dt
import hashlib
import io
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


# the family group's flags for fields of a family, with their types;
# --family and --tau0 complete the group
_FIELD_FLAGS = {"gamma": float, "cl": float, "k": int}


# --------------------------------------------------------------------------
# persistence helpers

# parsed options that are not manifest parameters: the output flags, the
# parser's bookkeeping, and the raw family flags, which enter resolved as
# args.modulus
_NOT_PARAMETERS = {"out_dir", "quiet", "command", "action", "func", "modulus",
                   "family", "tau0", *_FIELD_FLAGS}


def _result_dir(root: Path, command: str) -> Path:
    stamp = _dt.datetime.now(_dt.timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    path = root / command / stamp
    suffix = 0
    while path.exists():
        suffix += 1
        path = root / command / f"{stamp}-{suffix}"
    path.mkdir(parents=True)
    return path


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n"


def _csv_text(table) -> str:
    header, rows = table
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([_fmt(x) for x in row] for row in rows)
    return buf.getvalue()


def _fmt(x):
    if isinstance(x, float):  # includes numpy float64; normalize its repr
        return repr(float(x))
    return x


# one writer per file format, picked by the file name's suffix
_RENDER = {".json": _json_text, ".csv": _csv_text, ".svg": str}


def _svg_polyline(points, title: str, width=640, height=400) -> str:
    pts = [(float(x), float(y)) for x, y in points if math.isfinite(y)]
    if not pts:
        return f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"/>\n'
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
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
        f'<rect width="100%" height="100%" fill="white"/>\n'
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>\n'
        f'<polyline points="{poly}" fill="none" stroke="#1f4e8c" stroke-width="1.5"/>\n'
        "</svg>\n"
    )


def _svg_heatmap(matrix, title: str, max_cells=120) -> str:
    """Shade each cell by its share of the largest finite value; a cell that
    is not finite (a blown-up run's last levels) gets the full shade."""
    m = np.asarray(matrix, dtype=float)
    si = max(1, m.shape[0] // max_cells)
    sj = max(1, m.shape[1] // max_cells)
    m = m[::si, ::sj]
    finite = np.isfinite(m)
    top = float(np.max(m, where=finite, initial=0.0)) or 1.0
    share = np.where(finite, m, top) / top
    cell = 4
    h, w = m.shape
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w * cell}" height="{h * cell + 24}">',
        f'<text x="{w * cell // 2}" y="14" text-anchor="middle" font-size="12">{title}</text>',
    ]
    for i in range(h):
        for j in range(w):
            shade = int(255 * (1.0 - share[i, j]))
            parts.append(
                f'<rect x="{j * cell}" y="{(h - 1 - i) * cell + 24}" width="{cell}" '
                f'height="{cell}" fill="rgb({shade},{shade},255)"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _persist(args, files: dict) -> None:
    """Render every file, then write them and the manifest into a fresh
    result directory.  The manifest parameters are the resolved family
    (``args.modulus``) and every other parsed option."""
    started = _dt.datetime.now(_dt.timezone.utc).isoformat()
    texts = {name: _RENDER[Path(name).suffix](content) for name, content in files.items()}
    parameters = {**args.modulus, **{key: value for key, value in vars(args).items()
                                     if key not in _NOT_PARAMETERS}}
    root = Path(args.out_dir or os.environ.get("WAVECRIT_OUT", "results"))
    out = _result_dir(root, args.command)
    for name, text in texts.items():
        (out / name).write_text(text, newline="")
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
        "outputs": sorted([*texts, "manifest.json"]),
    }
    (out / "manifest.json").write_text(_json_text(manifest), newline="")
    if not args.quiet:
        print(f"results written to {out}", file=sys.stderr)


# --------------------------------------------------------------------------
# family construction

def _spec_from_args(parser, args):
    """The spec of the family flags.  An unset field takes its default in
    ``modulus``; a flag for a field the family does not have is a usage
    error.  The family, its fields and the spec's tau0 become
    ``args.modulus``."""
    family = _FAMILIES[args.family]
    fields = {f.name: f for f in dataclasses.fields(family)}
    for name in _FIELD_FLAGS:
        if getattr(args, name) is not None and name not in fields:
            parser.error(f"--{name} does not apply to family {args.family!r}")
    values = {}
    for f in fields.values():
        value = getattr(args, f.name, None)  # only `mu check` has --n
        if value is not None:
            values[f.name] = value
        elif f.default is dataclasses.MISSING:
            parser.error(f"--{f.name} is required for family {args.family!r}")
    try:
        family = family(**values)
        spec = make_spec(family, tau0=args.tau0)
    except ValueError as exc:
        parser.error(str(exc))
    args.modulus = {"family": args.family, **dataclasses.asdict(family), "tau0": spec.tau0}
    return spec


# --------------------------------------------------------------------------
# subcommands: each takes the parsed options and the family's spec (None for
# a command without --family) and returns (payload, files, exit code); files
# maps each file name to its JSON payload, CSV (header, rows) or SVG text

def _cmd_exponents(args, spec):
    if args.n == 1:
        payload = {"n": 1, "p_strauss": "infinite", "p_conjugate": 1.0,
                   "q": None, "kappa": None}
    else:
        es = exponent_set(args.n)
        payload = {"n": es.n, "p_strauss": es.p_strauss,
                   "p_conjugate": es.p_conjugate, "q": es.q, "kappa": es.kappa}
    return payload, {"exponents.json": payload}, 0


def _cmd_mu(args, spec):
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
    files = {"report.json": payload,
             "threshold_samples.csv": (("tau", "product"), verdict.samples)}
    return payload, files, 0 if payload["axioms_pass"] and payload["g_convex"] else 2


def _cmd_lemmas(args, spec):
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
        table = (("t", "ratio"), ratios)
    else:
        cfg = KernelConfig(n=args.n, lambda0=args.lambda0, R=1.0, quad_points=1024)
        report = kernel_bounds_check(cfg, kernel_exponent(args.n))
        payload = {"which": "kernel-bounds", "n": args.n, "a0": report.a0,
                   "b0": report.b0, "b1": report.b1, "b2": report.b2,
                   "region": report.region, "pass": bool(report.passed)}
        table = (report.columns, report.samples)
    files = {"report.json": payload, "ratios.csv": table}
    return payload, files, 0 if payload["pass"] else 2


def _cmd_sequences(args, spec):
    ledger = build_ledger(args.n, IterationConstants(), args.J)
    rows = ledger.rows
    payload = {"n": args.n, "J": args.J, "rows": len(rows),
               "log_c5": ledger.log_c5, "j1": ledger.j1}
    header = ("j", "ell_2j", "a_j", "b_j", "sigma_j", "log_m_j")
    return payload, {"ledger.csv": (header, rows)}, 0


def _cmd_onset(args, spec):
    onset = divergence_onset(3, IterationConstants(c6=args.c6, c7=args.c7),
                             spec, args.tmax)
    payload = {"family": args.family, "tmax": args.tmax, "onset_t": onset}
    return payload, {"onset.json": payload}, 0


def _cmd_solve(args, spec):
    data = default_bump(args.eps)
    grid = CharacteristicGrid.cover(args.h, args.horizon, data.support_radius)
    run = march(data, spec, grid, cap=args.cap)
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
    files = {"run.json": payload,
             "field.csv": (("t", "r", "u"), rows),
             "field.svg": _svg_heatmap(np.abs(run.field), f"|u|, status={run.status}")}
    return payload, files, 0


def _cmd_lifespan(args, spec):
    data = default_bump(1.0)
    grid = CharacteristicGrid.cover(args.h, args.horizon, data.support_radius)
    rows = lifespan_sweep(data, spec, args.eps_list, grid, cap=args.cap)
    table = [(r.eps, r.t_detect if r.t_detect is not None else args.horizon, r.status)
             for r in rows]
    payload = {"rows": [{"eps": r.eps, "t_detect": r.t_detect, "status": r.status}
                        for r in rows]}
    files = {"lifespan.csv": (("eps", "t", "status"), table),
             "lifespan.svg": _svg_polyline([(a, b) for a, b, _ in table],
                                           "detection time vs amplitude")}
    return payload, files, 0


def _cmd_verify_global(args, spec):
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
    files = {"report.json": payload}
    if profile is not None:
        files["profile.csv"] = (profile.columns, profile.samples)
    return payload, files, 0 if not failures else 2


def _cmd_key_integral(args, spec):
    rows = []
    for xi in args.xi_list:
        res = key_integral(xi, args.eps0, spec)
        rows.append((xi, res.value, res.ratio))
    ratios = [r for _, _, r in rows if r > 0.0]
    payload = {"family": args.family, "eps0": args.eps0,
               "max_min_ratio": (max(ratios) / min(ratios)) if ratios else None}
    files = {"key_integral.csv": (("xi", "I", "ratio"), rows), "summary.json": payload}
    return payload, files, 0


# --------------------------------------------------------------------------
# parser: the single declaration of every subcommand and of its manifest
# parameters

def _float_list(text: str) -> list:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of numbers: {text!r}") from None


def _dimension(text: str) -> int:
    if not text.isdecimal() or int(text) < 2:
        raise argparse.ArgumentTypeError(f"not an integer of at least 2: {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=argparse.SUPPRESS,
                        help="output root (default: $WAVECRIT_OUT or ./results)")
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)

    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", choices=_FAMILIES, required=True)
    for name, kind in _FIELD_FLAGS.items():
        family.add_argument(f"--{name}", type=kind)
    family.add_argument("--tau0", type=float)

    parser = argparse.ArgumentParser(
        prog="wavecrit",
        description="numerical laboratory for critical-regularity wave equations",
    )
    parser.set_defaults(out_dir=None, quiet=False, modulus={})
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *parents):
        p = sub.add_parser(name, parents=[common, *parents], help=help)
        p.set_defaults(func=func)
        return p

    p = command("exponents", _cmd_exponents, "exponent set for a dimension")
    p.add_argument("--n", type=int, required=True)

    p = command("mu", _cmd_mu, "modulus family checks", family)
    p.add_argument("action", choices=["check"])
    p.add_argument("--n", type=_dimension, default=3)

    p = command("lemmas", _cmd_lemmas, "kernel and ball-integral bound sweeps")
    p.add_argument("action", choices=["verify"])
    p.add_argument("--which", choices=["ball-integral", "kernel-bounds"], required=True)
    p.add_argument("--n", type=_dimension, required=True)
    p.add_argument("--lambda0", type=float, default=1.0)

    p = command("sequences", _cmd_sequences, "iteration ledger CSV")
    p.add_argument("--n", type=_dimension, required=True)
    p.add_argument("--J", type=int, default=30)

    p = command("onset", _cmd_onset, "divergence onset prediction", family)
    p.add_argument("--tmax", type=float, default=1e6)
    p.add_argument("--c6", type=float, default=1.0)
    p.add_argument("--c7", type=float, default=1.0)

    p = command("solve", _cmd_solve, "march one run and persist the field", family)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--cap", type=float, default=1e6)

    p = command("lifespan", _cmd_lifespan, "detection-time sweep over amplitudes", family)
    p.add_argument("--eps-list", type=_float_list, required=True)
    p.add_argument("--h", type=float, default=0.02)
    p.add_argument("--horizon", type=float, default=15.0)
    p.add_argument("--cap", type=float, default=1e6)

    p = command("verify-global", _cmd_verify_global,
                "global-side weighted decay verification", family)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--eps0", type=float, default=0.05)
    p.add_argument("--h", type=float, default=0.0625)
    p.add_argument("--horizon", type=float, default=100.0)
    p.add_argument("--cap", type=float, default=1e6)

    p = command("key-integral", _cmd_key_integral, "cone-interaction integral sweep", family)
    p.add_argument("--xi-list", type=_float_list, required=True)
    p.add_argument("--eps0", type=float, default=0.05)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _spec_from_args(parser, args) if "family" in vars(args) else None
        payload, files, code = args.func(args, spec)
        if not args.quiet:
            print(json.dumps(payload, sort_keys=True))
        _persist(args, files)
        return code
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
