"""Command-line front end: builds, verifications, experiments, exports.

Commands emit a single JSON report on stdout (or a DOT export with
--format dot where one exists) and optionally write both to --out DIR.
Reports are byte-identical across runs with the same config and seed:
all internal orderings are canonical and the only randomness is the
seeded chamber coloring of the rigidity command.

A report is built by its command's handler and then streamed: written
to its sink a dict key and a list item at a time, so that its text is
never one string; `lsv ball`'s vertex and edge items are filled from
the ball as they are written.  A DOT export is written 512 lines at a
time, each line made as it is needed.  With --out the JSON and the
DOT go to their files first and stdout gets a copy of the file it
shows.

Exit codes: 0 when every check passed, 1 when some check failed,
2 on usage errors and exceeded budgets, 3 on any other error (an
internal fault, a report that cannot be written to --out, or a failed
write to stdout).  An exceeded budget and every code-3 error print a
JSON diagnostic naming the error's type and message in place of the
report; when writing to stdout failed, part of the report may be out
already, so the diagnostic goes to stderr and nothing more to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .autoeng import (
    automorphism_order,
    automorphisms_fixing,
    is_isomorphic,
    panel_flip_check,
    verify_permutation,
)
from .errors import BudgetExceededError, CapExceededError
from .gf2k import format_poly
from .projmat import (
    cayley_ball,
    determinant,
    lsv_generators,
    projective_plane_orbit,
    symmetrize,
)
from .qlat import (
    MAX_COUNT_RADIUS,
    MAX_WORD_LENGTH,
    QuotientGraph,
    color_automorphism_count,
    lift_coloring,
    quotient_graph,
    ray_flip,
)
from .scx import color_chambers, fano_incidence_graph, link, purity_report

SCHEMA = "arithcx-report/1"

__all__ = ["main", "build_parser", "cmd_rigidity_contrast"]


def _check(name: str, value, expected, ok: bool | None = None) -> dict:
    """One check entry; it passes when value == expected unless an
    explicit verdict `ok` is given."""
    if ok is None:
        ok = value == expected
    return {
        "name": name,
        "status": "pass" if ok else "fail",
        "value": value,
        "expected": expected,
    }


def _config(args: argparse.Namespace) -> dict:
    keys = ("radius", "fix_radius", "colors", "seed", "budget", "format", "out")
    return {k: getattr(args, k, None) for k in keys}


def _report(command: str, args: argparse.Namespace, checks: list, data: dict) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "config": _config(args),
        "checks": checks,
        "data": data,
    }


_ESCAPE = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# the JSON text of each scalar type, by exact type
_SCALARS = {
    str: _ESCAPE,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}
_KINDS = {*_SCALARS, dict, list, tuple}


class _Rows(NamedTuple):
    """A list written from one item shape, `shape` with the string "%s"
    for each value and no other `%`, filled in slot order from each
    tuple that a fresh `values()` yields, each value's str its JSON."""

    shape: object
    values: Callable[[], Iterator[tuple]]


def _json_type(o) -> type | None:
    """The type json encodes an instance of a subclass as: the first of
    its checks that o passes, or None when it has none."""
    for t in (str, int, float, list, tuple, dict):
        if isinstance(o, t):
            return t
    return None


def _key_text(k) -> str:
    """A dict key quoted the way json quotes it."""
    kind = type(k) if type(k) in _SCALARS else _json_type(k)
    if kind is str:
        return _ESCAPE(k)
    if kind not in _SCALARS:
        raise TypeError(
            f"keys must be str, int, float, bool or None, not {k.__class__.__name__}"
        )
    return f'"{_SCALARS[kind](k)}"'


def _write(o, nl: str, write) -> None:
    """Write the JSON text of o through write(); nl is the newline and
    indent of the line o starts on.

    A dict goes out key by key and a list whose items are containers
    item by item, each item's text joined; a scalar or a list of
    scalars is one piece.  So no piece holds a large sub-list's text.
    A _Rows item is its shape's text at this indent, filled by `%`.
    """
    kind = type(o)
    if kind is _Rows:
        inner = nl + "  "
        item = _text(o.shape, inner).replace('"%s"', "%s")
        fmt = first = "[" + inner + item
        rest = "," + inner + item
        for v in o.values():
            write(fmt % v)
            fmt = rest
        write("[]" if fmt is first else nl + "]")
        return
    if kind not in _KINDS:
        kind = _json_type(o)
        if kind is None:
            raise TypeError(
                f"Object of type {o.__class__.__name__} is not JSON serializable"
            )
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        write(scalar(o))
    elif not o:
        write("{}" if kind is dict else "[]")
    elif kind is dict:
        inner = nl + "  "
        # the items are sorted before any key is converted, as json does
        sep = "{" + inner
        for k, v in sorted(o.items()):
            write(sep + _key_text(k) + ": ")
            _write(v, inner, write)
            sep = "," + inner
        write(nl + "}")
    else:
        inner = nl + "  "
        try:
            items = [_SCALARS[type(x)](x) for x in o]
        except KeyError:  # a container or a subclass among the items
            sep = "[" + inner
            for x in o:
                write(sep + _text(x, inner))
                sep = "," + inner
            write(nl + "]")
        else:
            write("[" + inner + ("," + inner).join(items) + nl + "]")


def _text(o, nl: str) -> str:
    """The JSON text of o, joined from _write's pieces."""
    pieces: list[str] = []
    _write(o, nl, pieces.append)
    return "".join(pieces)


def _emit(report: dict, write) -> None:
    """Write `json.dumps(report, indent=2, sort_keys=True)` and a newline
    through write(), in _write's pieces.

    json's indenting encoder runs in pure Python and keeps a chunk per
    token until its final join.  Here each list item's text is joined
    once, a list of scalars in one join, a _Rows item is one `%`, and
    strings go through json's C escaper; the report as a whole is never
    one string.
    """
    _write(report, "\n", write)
    write("\n")


def _joined(lines: Iterable[str]) -> Iterator[str]:
    """The lines joined 512 at a time, so that a large export takes few
    write calls and no piece holds its whole text."""
    lines = iter(lines)
    while piece := "".join(islice(lines, 512)):
        yield piece


# ----------------------------------------------------------------------
# lsv


def _lsv_verify(args: argparse.Namespace) -> tuple[dict, Iterator[str] | None]:
    r = args.radius
    gens = lsv_generators()
    sym = symmetrize(gens)
    ball = cayley_ball(sym, r, args.budget)
    cx = ball.to_complex()
    dets_ok = all(determinant(m) for m in gens.matrices)
    distinct = len({m.encode() for m in sym.matrices})
    checks = [
        _check("generator-count", len(gens), 7),
        _check("determinants-nonzero", dets_ok, True),
        _check("symmetrized-distinct", distinct, 14),
    ]
    orbit = projective_plane_orbit(gens.matrices)
    checks.append(_check("plane-orbit-sizes", orbit, [273]))

    skipped = []
    if r >= 1:
        witness = is_isomorphic(link(cx, 0), fano_incidence_graph())
        checks.append(_check("link-heawood", witness is not None, True))
    else:
        skipped.append("link-heawood")

    data: dict = {
        "vertex_count": len(ball),
        "sphere_sizes": list(ball.sphere_sizes()),
        "edge_count": cx.simplex_count(1),
        "triangle_count": cx.simplex_count(2),
        "generator_determinants": [
            m.spec.names[determinant(m)] for m in gens.matrices
        ],
        "collision": None
        if ball.collision is None
        else ball.collision.to_json_dict(),
    }

    if r >= 2:
        interior = frozenset(i for i, d in enumerate(ball.dist) if d < r)
        purity = purity_report(cx, interior)
        checks.append(
            _check(
                "interior-purity",
                {"pure": purity.pure, "dimension": purity.dimension},
                {"pure": True, "dimension": 2},
            )
        )
        flips = panel_flip_check(cx, interior, steps=ball.steps)
        checks.append(_check("interior-thickness", list(flips.thickness), [3]))
        checks.append(_check("panel-flip-fraction", flips.fraction, 1.0))
        data["panel_flips"] = {
            "edges_eligible": flips.edges_eligible,
            "edges_skipped": flips.edges_skipped,
            "choices_satisfied": flips.choices_satisfied,
        }
        data["interior_maximal_by_dim"] = {
            str(k): v for k, v in purity.interior_maximal_by_dim.items()
        }
    else:
        skipped += ["interior-purity", "interior-thickness", "panel-flip-fraction"]

    # checks that need an interior are omitted below this radius, which
    # counts as passing: there is nothing to test yet
    data["skipped_checks"] = skipped
    return _report("lsv-verify", args, checks, data), None


def _ball_data(ball) -> dict:
    """The ball's JSON record; its vertices and edges are _Rows, filled
    from the ball as they are written."""
    gens = ball.generators
    quoted = [_ESCAPE(n) for n in gens.fieldspec.names]
    return {
        "field": {"modulus": format_poly(gens.fieldspec.modulus)},
        "radius": ball.radius,
        "generator_labels": list(gens.labels),
        "generators": [m.rows() for m in gens.matrices],
        "vertex_count": len(ball),
        "sphere_sizes": list(ball.sphere_sizes()),
        "vertices": _Rows(
            {"distance": "%s", "index": "%s", "rows": [["%s"] * 3] * 3},
            lambda: (
                (d, i, *[quoted[e] for e in m.entries])
                for i, (d, m) in enumerate(zip(ball.dist, ball.vertices))
            ),
        ),
        "edges": _Rows(["%s"] * 3, ball.edges),
        "collision": ball.collision and ball.collision.to_json_dict(),
    }


def _lsv_ball(args: argparse.Namespace) -> tuple[dict, Iterator[str] | None]:
    ball = cayley_ball(symmetrize(lsv_generators()), args.radius, args.budget)
    dot = ball.to_dot() if args.format == "dot" else None
    data = {}
    if dot is None or args.out:  # the JSON report is written somewhere
        data = {"triangle_count": len(ball.triangles()), "ball": _ball_data(ball)}
    return _report("lsv-ball", args, [], data), dot


# ----------------------------------------------------------------------
# tree


def _quotient_checks(qg: QuotientGraph) -> list:
    degrees = [qg.degree(v) for v in qg.vertices]
    parallels = sorted(
        qg.parallel_count(u, v)
        for i, u in enumerate(qg.vertices)
        for v in qg.vertices[i + 1 :]
    )
    klein = automorphisms_fixing(qg.to_complex(), (), cap=1000).order
    return [
        _check("quotient-vertices", len(qg.vertices), 4),
        _check("quotient-edge-orbits", len(qg.edges), 12),
        _check("quotient-degrees", degrees, [6, 6, 6, 6]),
        _check("quotient-parallel-pairs", parallels, [2] * 6),
        _check(
            "quotient-simple-is-k4",
            list(map(list, qg.simple_edges())),
            [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
        ),
        _check("quotient-color-group-order", klein, 4),
    ]


def _flip_checks(ball, cx, s: int) -> tuple[list, dict]:
    v = next(i for i, d in enumerate(ball.dist) if d == s)
    flip = ray_flip(ball, v)
    fixes_inner = all(
        flip(i) == i for i in range(ball.vertex_count()) if ball.dist[i] <= s
    )
    verified = verify_permutation(cx, flip)
    checks = [
        _check("flip-nontrivial", not flip.is_identity(), True),
        _check("flip-involution", flip.compose(flip).is_identity(), True),
        _check("flip-fixes-inner-ball", fixes_inner, True),
        _check("flip-color-preserving", verified, True),
    ]
    data = {
        "witness_flip": flip.to_json_dict(),
        "flip_vertex": {
            "index": v,
            "word": list(ball.words[v]),
            "distance": ball.dist[v],
            "moved_vertices": len(flip.moved()),
        },
    }
    return checks, data


def _tree_experiment(args: argparse.Namespace) -> tuple[dict, Iterator[str] | None]:
    r, s = args.radius, args.fix_radius
    ball = lift_coloring(r, vertex_budget=args.budget)
    cx = ball.to_complex()

    limit = min(r, MAX_WORD_LENGTH)
    counts = ball.class_counts(limit)
    expected_counts = {l: 6 * 5 ** (l - 1) for l in range(1, limit + 1)}
    checks = [_check("free-group-counts", counts, expected_counts)]
    checks += _quotient_checks(quotient_graph())

    sweep = []
    skipped = []
    for rr in range(s + 1, r + 1):
        c = color_automorphism_count(rr, s)
        sweep.append(c)
        name = f"count-r{rr}-s{s}-consistent"
        # with neither engine cross-check run there is nothing to agree
        if c.enumerated is None and c.chain_order is None:
            skipped.append(name)
        else:
            checks.append(
                _check(name, c.to_json_dict(), {"consistent": True}, c.consistent)
            )
        if (rr, s) == (2, 1):
            checks.append(_check("count-r2-s1", str(c.count), "4096"))
    growing = all(a.count < b.count for a, b in zip(sweep, sweep[1:]))
    checks.append(
        _check(
            "count-strict-growth",
            [c.log2_count for c in sweep],
            "strictly increasing",
            growing,
        )
    )

    flip_checks, flip_data = _flip_checks(ball, cx, s)
    checks += flip_checks
    data = {
        "ball": {
            "radius": r,
            "vertex_count": ball.vertex_count(),
            "sphere_sizes": list(ball.sphere_sizes()),
        },
        "counts": [c.to_json_dict() for c in sweep],
        **flip_data,
    }
    if skipped:
        data["skipped_checks"] = skipped
    dot = ball.to_dot() if args.format == "dot" else None
    return _report("tree-experiment", args, checks, data), dot


def _tree_quotient(args: argparse.Namespace) -> tuple[dict, Iterator[str] | None]:
    qg = quotient_graph()
    data = {
        "edges": [
            {
                "u": e.u,
                "v": e.v,
                "gen_from_u": e.gen_from_u,
                "gen_from_v": e.gen_from_v,
                "color": e.color,
            }
            for e in qg.edges
        ]
    }
    dot = qg.to_complex().to_dot() if args.format == "dot" else None
    return _report("tree-quotient", args, _quotient_checks(qg), data), dot


def _tree_flip(args: argparse.Namespace) -> tuple[dict, Iterator[str] | None]:
    r, s = args.radius, args.fix_radius
    ball = lift_coloring(r, vertex_budget=args.budget)
    cx = ball.to_complex()
    checks, data = _flip_checks(ball, cx, s)
    data["ball"] = {"radius": r, "vertex_count": ball.vertex_count()}
    dot = ball.to_dot() if args.format == "dot" else None
    return _report("tree-flip", args, checks, data), dot


# ----------------------------------------------------------------------
# rigidity contrast


def cmd_rigidity_contrast(args: argparse.Namespace) -> tuple[dict, Iterator[str] | None]:
    ball = cayley_ball(symmetrize(lsv_generators()), args.radius, args.budget)
    cx = ball.to_complex()
    center = 0
    data: dict = {
        "vertex_count": len(ball),
        "chamber_count": len(cx.chambers()),
        "center": center,
    }
    if args.colors == 1:
        grp = automorphism_order(cx, fixed=[center])
        order = grp.order
        checks = [
            _check(
                "color-group-nontrivial",
                str(order),
                ">= 2",
                order >= 2,
            )
        ]
        data["coloring"] = "constant"
    else:
        rng = random.Random(args.seed)
        assignment = {t: rng.randrange(args.colors) for t in cx.chambers()}
        colored = color_chambers(cx, assignment)
        sizes: dict[int, int] = {}
        for c in assignment.values():
            sizes[c] = sizes.get(c, 0) + 1
        grp = automorphisms_fixing(colored, [center], cap=args.budget)
        order = grp.order
        checks = [_check("color-group-order", order, 1)]
        data["coloring"] = {"classes": {str(k): v for k, v in sorted(sizes.items())}}
    data["group_order"] = str(order)
    data["tree_growth"] = [
        color_automorphism_count(rr, 1, check=False).to_json_dict()
        for rr in (2, 3, 4)
    ]
    return _report("rigidity", args, checks, data), None


# ----------------------------------------------------------------------
# plumbing


def _add_common(
    p: argparse.ArgumentParser,
    *,
    radius: int | None = None,
    fix_radius: int | None = None,
    colors: bool = False,
) -> None:
    if radius is not None:
        p.add_argument(
            "--radius", "-r", "--r", dest="radius", type=int, default=radius,
            help=f"ball radius (default {radius})",
        )
    if fix_radius is not None:
        p.add_argument(
            "--fix-radius", "-s", "--s", dest="fix_radius", type=int,
            default=fix_radius,
            help=f"radius of the pointwise-fixed inner ball (default {fix_radius})",
        )
    if colors:
        p.add_argument(
            "--colors", type=int, default=2,
            help="number of chamber colors; 1 means the constant coloring (default 2)",
        )
        p.add_argument(
            "--seed", type=int, default=0,
            help="seed for the random chamber coloring (default 0)",
        )
    p.add_argument(
        "--budget", type=int, default=10**6,
        help="vertex and enumeration budget (default 1000000)",
    )
    p.add_argument(
        "--out", type=str, default=None, metavar="DIR",
        help="directory to write the report (and DOT export) into",
    )
    p.add_argument(
        "--format", choices=("json", "dot"), default="json",
        help="stdout format; dot is available for export commands",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arithcx",
        description="builds and experiments on arithmetic quotient complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lsv = sub.add_parser("lsv", help="rank-two building ball commands")
    lsv_sub = lsv.add_subparsers(dest="subcmd", required=True)
    p = lsv_sub.add_parser("verify", help="build the ball and run all checks")
    _add_common(p, radius=2)
    p.set_defaults(handler=_lsv_verify, name="lsv-verify", has_dot=False)
    p = lsv_sub.add_parser("ball", help="export the Cayley ball")
    _add_common(p, radius=2)
    p.set_defaults(handler=_lsv_ball, name="lsv-ball", has_dot=True)

    tree = sub.add_parser("tree", help="rank-one tree commands")
    tree_sub = tree.add_subparsers(dest="subcmd", required=True)
    p = tree_sub.add_parser("experiment", help="growth of color automorphisms")
    _add_common(p, radius=3, fix_radius=1)
    p.set_defaults(handler=_tree_experiment, name="tree-experiment", has_dot=True)
    p = tree_sub.add_parser("quotient", help="the Z/4Z quotient multigraph")
    _add_common(p)
    p.set_defaults(handler=_tree_quotient, name="tree-quotient", has_dot=True)
    p = tree_sub.add_parser("flip", help="an explicit subtree-swap witness")
    _add_common(p, radius=3, fix_radius=1)
    p.set_defaults(handler=_tree_flip, name="tree-flip", has_dot=True)

    p = sub.add_parser(
        "rigidity", help="colored building ball vs the flexible tree"
    )
    _add_common(p, radius=2, colors=True)
    p.set_defaults(handler=cmd_rigidity_contrast, name="rigidity", has_dot=False)
    return parser


def _validate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if getattr(args, "budget", 1) < 1:
        parser.error("--budget must be positive")
    if getattr(args, "radius", 0) < 0:
        parser.error("--radius must be nonnegative")
    if getattr(args, "colors", 1) < 1:
        parser.error("--colors must be at least 1")
    fix = getattr(args, "fix_radius", None)
    if fix is not None:
        if not 0 <= fix < args.radius:
            parser.error("--fix-radius must satisfy 0 <= s < r")
    if args.name == "tree-experiment" and args.radius > MAX_COUNT_RADIUS:
        parser.error(f"--radius must be at most {MAX_COUNT_RADIUS} to count")
    if args.format == "dot" and not args.has_dot:
        parser.error(f"{args.name} has no DOT export")


def _diagnostic(args: argparse.Namespace, exc: Exception) -> dict:
    """What is printed in place of a report: the error's type and message."""
    return {
        "schema": SCHEMA,
        "command": args.name,
        "config": _config(args),
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def _discard_stdout() -> None:
    """Point the stdout descriptor, if there is one, at the null device,
    so that the flush at exit drops what a failed write left buffered
    instead of failing again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(args, parser)
    written = None  # the --out file stdout copies, once it is complete
    try:
        report, dot = args.handler(args)
        code = 0 if all(c["status"] == "pass" for c in report["checks"]) else 1
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            path = out / f"{args.name}.json"
            with open(path, "w") as f:
                _emit(report, f.write)
            if dot is not None:  # stdout copies the DOT file, not the JSON
                path = out / f"{args.name}.dot"
                with open(path, "w") as f:
                    f.writelines(_joined(dot))
            written = path
    except (BudgetExceededError, CapExceededError) as exc:
        report, dot, code = _diagnostic(args, exc), None, 2
    except Exception as exc:
        # the standard traceback on stderr, without importing the
        # traceback module on every start
        sys.excepthook(type(exc), exc, exc.__traceback__)
        report, dot, code = _diagnostic(args, exc), None, 3
    # sys.stdout is looked up at each use, so that a caller's redirect
    # of it takes effect
    try:
        if written is not None:
            with open(written) as f:
                shutil.copyfileobj(f, sys.stdout)
        elif dot is not None:
            for piece in _joined(dot):
                sys.stdout.write(piece)
        else:
            _emit(report, sys.stdout.write)
        sys.stdout.flush()
    except Exception as exc:
        # part of the report may be out already: the diagnostic goes to
        # stderr, and nothing more to stdout
        if isinstance(exc, OSError):
            _discard_stdout()
        else:  # an internal fault, such as a report json cannot encode
            sys.excepthook(type(exc), exc, exc.__traceback__)
        _emit(_diagnostic(args, exc), sys.stderr.write)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
