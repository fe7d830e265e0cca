"""Command-line harness: sweeps, data export, oracle runs, validation.

Output files are plot-ready CSV (with a '#' metadata header) or JSON.
Formatting is fixed at 17 significant digits and row order is defined by
the sweep grids alone, so identical configurations produce byte-identical
files no matter how many worker processes ran.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .bands import band_structure
from .errors import OracleMismatchError, ParameterError, TwoPolaritonError
from .model import ModelParams
from .ring_ed import band_edge_check, compare_bound_state
from .sweeps import bound_sweep, scatter_sweep
from .validation import CHECK_NAMES, run_checks

log = logging.getLogger("twopol")

_PI_FORM = re.compile(
    r"^(?P<sign>[+-]?)(?P<coef>\d+(?:\.\d*)?)?\s*\*?\s*pi"
    r"(?:\s*/\s*(?P<den>\d+(?:\.\d*)?))?$"
)


def parse_angle(text: str) -> float:
    """Float literal or a multiple of pi: 'pi', '-pi/2', '0.3pi', '2pi/3'."""
    s = text.strip().lower().replace("π", "pi")
    try:
        return float(s)
    except ValueError:
        pass
    m = _PI_FORM.match(s)
    if not m:
        raise ValueError(f"cannot parse angle {text!r}")
    value = math.pi * float(m.group("coef") or 1.0)
    if m.group("den"):
        value /= float(m.group("den"))
    return -value if m.group("sign") == "-" else value


def parse_values(text: str, grid: int, angles: bool = False) -> np.ndarray:
    """Value list syntax: 'x', 'x,y,z', 'start:stop:step', 'start:stop'.

    The two-field range takes its point count from the --grid flag; the
    three-field range derives it from the step, endpoints included.
    """
    convert = parse_angle if angles else float
    if ":" in text:
        parts = [convert(p) for p in text.split(":")]
        if len(parts) == 2:
            start, stop = parts
            if grid < 1:
                raise ValueError("--grid must be a positive point count")
            count = grid
        elif len(parts) == 3:
            start, stop, step = parts
            if step <= 0:
                raise ValueError(f"range step must be positive in {text!r}")
            count = int(round((stop - start) / step)) + 1
        else:
            raise ValueError(f"bad range syntax {text!r}")
        if stop < start:
            raise ValueError(f"empty range {text!r}")
        return np.linspace(start, stop, count)
    values = np.array([convert(p) for p in text.split(",")])
    if values.size == 0:
        raise ValueError(f"no values in {text!r}")
    return values


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: the single source every command reads."""

    subcommand: str
    xi: float
    K: float
    deltas: np.ndarray
    qs: np.ndarray = None
    branch: str = "AB"
    ring_sizes: tuple = (24, 48)
    jobs: int = None
    out: str = None
    fmt: str = "csv"
    checks: tuple = None
    seed: int = None
    raw: dict = field(default_factory=dict)    # original range strings


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _meta_block(config: RunConfig, columns, extra=()) -> list:
    pairs = [
        ("xi", _fmt(config.xi)),
        ("K", config.raw.get("K", _fmt(config.K))),
        ("format", config.fmt),
    ]
    if config.deltas is not None:
        pairs.append(("delta", config.raw.get(
            "delta", ",".join(_fmt(d) for d in config.deltas))))
    if config.qs is not None:
        pairs.append(("q", config.raw.get(
            "q", ",".join(_fmt(q) for q in config.qs))))
    pairs.extend(extra)
    lines = [f"# twopol {config.subcommand}"]
    lines += [f"# {k} = {v}" for k, v in sorted(pairs)]
    lines.append("# columns: " + ",".join(columns))
    return lines


def _emit(text: str, out: str):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        log.info("wrote %s", out)
    else:
        sys.stdout.write(text)


def _csv(config: RunConfig, columns, rows, extra=()) -> str:
    buf = io.StringIO()
    buf.write("\n".join(_meta_block(config, columns, extra)) + "\n")
    writer = csv.writer(buf, lineterminator="\n")     # quotes text with commas
    writer.writerow(columns)
    writer.writerows(["" if v is None else v if isinstance(v, str) else _fmt(v)
                      for v in row] for row in rows)
    return buf.getvalue()


def _json_doc(config: RunConfig, columns, rows, gaps=None) -> str:
    doc = {
        "command": config.subcommand,
        "xi": config.xi,
        "K": config.K,
        "columns": list(columns),
        "rows": [
            {c: (None if v is None else v) for c, v in zip(columns, row)}
            for row in rows
        ],
    }
    if gaps is not None:
        doc["gaps"] = gaps
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_bands(config: RunConfig) -> int:
    columns = ("delta", "aa_lo", "aa_hi", "ab_lo", "ab_hi", "bb_lo", "bb_hi")
    rows, gaps = [], []
    for d in config.deltas:
        bs = band_structure(ModelParams(xi=config.xi, delta=float(d), K=config.K))
        edges = bs.branch_edges
        rows.append((float(d),
                     edges["AA"][0], edges["AA"][1],
                     edges["AB"][0], edges["AB"][1],
                     edges["BB"][0], edges["BB"][1]))
        gaps.append({
            "delta": float(d),
            "gaps": [
                {"index": g.index, "lo": g.lo, "hi": g.hi}
                for g in sorted(bs.gaps, key=lambda g: g.index)
            ],
        })
    if config.fmt == "json":
        _emit(_json_doc(config, columns, rows, gaps=gaps), config.out)
    else:
        _emit(_csv(config, columns, rows), config.out)
        if config.out:
            side = config.out + ".gaps.json"
            _emit(json.dumps(gaps, indent=2, sort_keys=True) + "\n", side)
        else:
            log.info("gap listing omitted on stdout; pass --out to get "
                     "the .gaps.json sidecar")
    return 0


def cmd_bound(config: RunConfig) -> int:
    columns = ("delta", "gap_id", "E_b", "weight_p", "weight_d", "weight_t",
               "kappa", "note")
    points = bound_sweep(config.xi, config.deltas, K=config.K,
                         jobs=config.jobs)
    rows = []
    for pt in points:
        if pt.note:
            log.warning("skipped delta=%s: %s", _fmt(pt.delta), pt.note)
        searched = {g.index: states for g, states in zip(pt.gaps, pt.states)}
        refused = dict(pt.skipped)
        for gap_id in (1, 2):
            states = searched.get(gap_id, ())
            for st in states:
                rows.append((pt.delta, float(gap_id), st.energy,
                             st.weights[0], st.weights[1], st.weights[2],
                             st.decay_rate, ""))
            if not states:
                # an empty row says why: no state, the refusal, or no gap
                why = "no state" if gap_id in searched else refused.get(gap_id, "closed")
                rows.append((pt.delta, float(gap_id),
                             None, None, None, None, None, why))
    if config.fmt == "json":
        _emit(_json_doc(config, columns, rows), config.out)
    else:
        _emit(_csv(config, columns, rows), config.out)
    return 0


def cmd_scatter(config: RunConfig) -> int:
    columns = ("q", "delta", "channel_out", "re_f", "im_f", "abs_f_sq",
               "residual_max", "current_max")
    points = scatter_sweep(config.branch, config.qs, config.deltas,
                           config.xi, K=config.K, jobs=config.jobs)
    rows = []
    for pt in points:
        if pt.solution is None:
            log.warning("skipped q=%s delta=%s: %s", _fmt(pt.q),
                        _fmt(pt.delta), pt.note)
            continue
        sol = pt.solution
        for out_branch in ("AA", "AB", "BA", "BB"):
            if out_branch not in sol.open_branches:
                continue
            f = sol.coefficient(out_branch)
            rows.append((pt.q, pt.delta, out_branch, f.real, f.imag,
                         abs(f) ** 2, sol.residual_max, sol.current_max))
    extra = (("branch", config.branch),)
    if config.fmt == "json":
        _emit(_json_doc(config, columns, rows), config.out)
    else:
        _emit(_csv(config, columns, rows, extra), config.out)
    return 0


def cmd_oracle(config: RunConfig) -> int:
    columns = ("delta", "gap_id", "E_b", "N", "E_ed", "error", "overlap")
    rows = []
    status = 0
    for d in config.deltas:
        p = ModelParams(xi=config.xi, delta=float(d), K=config.K)
        points = bound_sweep(config.xi, [float(d)], K=config.K, jobs=1)[0]
        if points.note:
            log.error("no oracle comparison at delta=%s: %s", _fmt(d), points.note)
            status = 1
        for gap, states in zip(points.gaps, points.states):
            for st in states:
                try:
                    comparisons = compare_bound_state(st, config.ring_sizes)
                except OracleMismatchError as exc:
                    log.error("oracle mismatch at delta=%s: %s", _fmt(d), exc)
                    status = 1
                    continue
                for row in comparisons:
                    rows.append((float(d), float(gap.index), st.energy,
                                 float(row.N), row.energy, row.error,
                                 row.overlap))
        report = band_edge_check(p, max(config.ring_sizes))
        if not report.ok:
            log.error("band-edge audit failed at delta=%s: %d violations, "
                      "%d in-gap vs %d expected", _fmt(d),
                      len(report.violations), len(report.in_gap),
                      report.expected_bound_count)
            status = 1
    extra = (("N", ",".join(str(n) for n in config.ring_sizes)),)
    if config.fmt == "json":
        _emit(_json_doc(config, columns, rows), config.out)
    else:
        _emit(_csv(config, columns, rows, extra), config.out)
    return status


def cmd_validate(config: RunConfig) -> int:
    kwargs = {} if config.seed is None else {"seed": config.seed}
    results = run_checks(names=config.checks, **kwargs)
    doc = {
        "passed": all(r.passed for r in results),
        "checks": [r.to_dict() for r in results],
        "seconds_total": sum(r.seconds for r in results),
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", config.out)
    for r in results:
        log.info("%s %-24s %7.1f ms  %s",
                 "PASS" if r.passed else "FAIL", r.name,
                 1e3 * r.seconds, r.detail)
    return 0 if doc["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twopol",
        description="Two-polariton bands, bound states, scattering, and "
                    "validation for the driven cavity array model.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, q_flag=False, branch_flag=False, rings_flag=False):
        p.add_argument("--xi", required=True, help="photon hopping / g")
        p.add_argument("--K", default="0", help="total momentum (pi syntax ok)")
        p.add_argument("--delta", required=True,
                       help="detuning values: x | x,y,... | start:stop:step")
        if q_flag:
            p.add_argument("--q", required=True,
                           help="relative momenta in (0, pi); pi syntax ok")
            p.add_argument("--grid", type=int, default=100,
                           help="point count for two-field --q ranges")
        if branch_flag:
            p.add_argument("--branch", default="AB",
                           choices=("AA", "AB", "BA", "BB"),
                           help="incident branch")
        if rings_flag:
            p.add_argument("--N", default="24,48",
                           help="comma-separated ring sizes")
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: all cores)")
        p.add_argument("--out", default=None, help="output path")
        p.add_argument("--format", dest="fmt", default="csv",
                       choices=("csv", "json"))

    common(sub.add_parser("bands", help="band edges and gaps over detuning"))
    common(sub.add_parser("bound", help="bound-state branches over detuning"))
    common(sub.add_parser("scatter", help="scattering coefficients"),
           q_flag=True, branch_flag=True)
    common(sub.add_parser("oracle", help="ring-ED cross-checks"),
           rings_flag=True)

    val = sub.add_parser("validate", help="run the self-check suite")
    val.add_argument("--checks", default=None,
                     help="comma-separated subset of: " + ",".join(CHECK_NAMES))
    val.add_argument("--seed", type=int, default=None)
    val.add_argument("--out", default=None, help="JSON report path")
    return parser


def _resolve(parser, args) -> RunConfig:
    if args.subcommand == "validate":
        checks = None
        if args.checks:
            checks = tuple(s.strip() for s in args.checks.split(","))
            unknown = set(checks) - set(CHECK_NAMES)
            if unknown:
                parser.error(f"unknown checks: {sorted(unknown)}")
        return RunConfig(subcommand="validate", xi=0.0, K=0.0, deltas=None,
                         out=args.out, checks=checks, seed=args.seed)
    try:
        xi = float(args.xi)
        k = parse_angle(args.K)
        deltas = parse_values(args.delta, grid=0)
        qs = None
        if getattr(args, "q", None) is not None:
            qs = parse_values(args.q, grid=args.grid, angles=True)
            if ((qs <= 0.0) | (qs >= math.pi)).any():
                raise ValueError("q values must lie strictly inside (0, pi)")
        rings = tuple(int(n) for n in getattr(args, "N", "24,48").split(","))
        if any(n < 3 for n in rings):
            raise ValueError("ring sizes must be at least 3")
    except ValueError as exc:
        parser.error(str(exc))
    raw = {"K": args.K, "delta": args.delta}
    if getattr(args, "q", None) is not None:
        raw["q"] = args.q
    return RunConfig(
        subcommand=args.subcommand, xi=xi, K=k, deltas=deltas, qs=qs,
        branch=getattr(args, "branch", "AB"), ring_sizes=rings,
        jobs=args.jobs, out=args.out, fmt=args.fmt, raw=raw,
    )


_COMMANDS = {
    "bands": cmd_bands,
    "bound": cmd_bound,
    "scatter": cmd_scatter,
    "oracle": cmd_oracle,
    "validate": cmd_validate,
}

_VALUE_FLAGS = frozenset({
    "--xi", "--K", "--delta", "--q", "--grid", "--jobs", "--out",
    "--format", "--branch", "--N", "--checks", "--seed",
})


def _normalize_argv(argv) -> list:
    """Glue leading-dash values like '-10:10:0.05' onto their flag.

    argparse only special-cases bare negative numbers; ranges and comma
    lists that start with '-' need the '--flag=value' form, which this
    rewrite supplies automatically.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in _VALUE_FLAGS and nxt is not None \
                and nxt.startswith("-") and nxt not in _VALUE_FLAGS:
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(_normalize_argv(
        sys.argv[1:] if argv is None else list(argv)))
    config = _resolve(parser, args)
    try:
        return _COMMANDS[config.subcommand](config)
    except ParameterError as exc:
        parser.error(str(exc))       # exits 2: bad physics configuration
    except TwoPolaritonError as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
