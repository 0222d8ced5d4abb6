"""Independent checks of each command's output.

Nothing here imports the library: every expected value comes from the
benchmark's own arithmetic.  Automorphism orders are counted on the forest
of preimages (a chain S1 -> ... -> Sk is a forest rooted in Sk), class
counts from the orbit-counting identity and bounded partitions, homology
from union-find on the graph, morphism counts from |Y|^|X| and equivariant
map counts from a loop over all maps.  The expected values are computed
here, when an output is checked, so they cost nothing in the timed set-up.

`check(task, status, text)` returns an empty string when the output is
right, else the reason it is wrong.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction

_ROW = re.compile(r"^(\d+): sizes=([\d,]+) maps=(.*) \|Aut\|=(\d+)$")


# --- chain diagrams as forests ------------------------------------------------

def _roots(sizes, maps):
    """(code, automorphism order) of every element of the last set.

    A node's code is the sorted tuple of its children's codes; its
    automorphism order is the product over distinct child codes c of
    mult(c)! * aut(c)^mult(c).
    """
    nodes = [((), 1)] * sizes[0]
    for i, values in enumerate(maps):
        children = [[] for _ in range(sizes[i + 1])]
        for x, y in enumerate(values):
            children[y].append(nodes[x])
        nodes = [(tuple(sorted(c for c, _ in ch)), _wreath(ch))
                 for ch in children]
    return nodes


def _wreath(nodes):
    counts = {}
    for code, aut in nodes:
        mult, _ = counts.get(code, (0, aut))
        counts[code] = (mult + 1, aut)
    total = 1
    for mult, aut in counts.values():
        total *= math.factorial(mult) * aut ** mult
    return total


def aut_order(sizes, maps):
    """Order of the automorphism group of the chain diagram."""
    return _wreath(_roots(sizes, maps))


def class_code(sizes, maps):
    """Equal exactly for isomorphic chain diagrams of one length."""
    return (len(sizes), tuple(sorted(c for c, _ in _roots(sizes, maps))))


def labelled_count(bounds):
    """Sum over size tuples within bounds of prod |S_(i+1)|^|S_i|."""
    return sum(math.prod(s[i + 1] ** s[i] for i in range(len(s) - 1))
               for s in itertools.product(*(range(1, b + 1) for b in bounds)))


def orbit_sum(rows):
    """Sum over classes of prod |S_i|! / |Aut|; equals `labelled_count`."""
    return sum(Fraction(math.prod(math.factorial(n) for n in sizes), aut)
               for sizes, aut in rows)


def bounded_partitions(n_max, parts_max):
    """Classes of maps A -> B with |A| <= n_max, |B| <= parts_max."""
    def p(n, m):  # partitions of n into at most m parts
        if n == 0:
            return 1
        if m == 0:
            return 0
        return p(n, m - 1) + (p(n - m, m) if n >= m else 0)
    return sum(p(n, m) for n in range(1, n_max + 1)
               for m in range(1, parts_max + 1))


def _census_rows_ok(k_levels, bounds, rows):
    """Shared checks of class rows (sizes, aut): bounds and the identity."""
    for sizes, _ in rows:
        if len(sizes) != k_levels or any(
                not 1 <= s <= b for s, b in zip(sizes, bounds)):
            return f"class sizes {sizes} outside bounds {bounds}"
    if orbit_sum(rows) != labelled_count(bounds):
        return (f"orbit-counting identity fails: {orbit_sum(rows)} != "
                f"{labelled_count(bounds)}")
    if k_levels == 2 and len(rows) != bounded_partitions(*bounds):
        return (f"{len(rows)} classes, expected "
                f"{bounded_partitions(*bounds)} bounded partitions")
    return ""


# --- per command ------------------------------------------------------------------

def _enumerate(task, text):
    k, bounds = task.expect["k"], task.expect["bounds"]
    lines = text.strip().splitlines()
    if not lines or lines[-1] != f"classes: {len(lines) - 1}":
        return "class count line missing or wrong"
    rows, codes = [], set()
    for line in lines[:-1]:
        m = _ROW.match(line)
        if not m:
            return f"unparsable row {line!r}"
        sizes = tuple(int(s) for s in m.group(2).split(","))
        maps = [json.loads(v) for v in re.findall(r"\[[^\]]*\]", m.group(3))]
        if len(maps) != k - 1 or len(sizes) != k or any(
                len(v) != sizes[i] or not all(0 <= y < sizes[i + 1] for y in v)
                for i, v in enumerate(maps)):
            return f"malformed class {line!r}"
        aut = int(m.group(4))
        if aut != aut_order(sizes, maps):
            return f"|Aut| {aut} != {aut_order(sizes, maps)} for {line!r}"
        codes.add(class_code(sizes, maps))
        rows.append((sizes, aut))
    if len(codes) != len(rows):
        return "two rows are the same class"
    return _census_rows_ok(k, bounds, rows)


def _monad(task, text):
    data = json.loads(text)
    k, bounds = task.expect["k"], task.expect["bounds"]
    rows = [(tuple(r["sizes"]), r["aut_order"]) for r in data["rows"]]
    if not data["passed"]:
        return "verify-monad reports FAIL"
    if not (data["assembled_classes"] == data["enumerated_classes"]
            == len(rows)):
        return "class counts disagree"
    if any(r["aut_order"] != r["wreath"] for r in data["rows"]):
        return "a class has |Aut| != wreath count"
    return _census_rows_ok(k + 1, bounds, rows)


def _compose(a, b):
    return tuple(tuple(q[x] for x in p) for p, q in zip(a, b))


def _aut(task, text):
    data = json.loads(text)
    sizes, maps = task.expect["sizes"], task.expect["maps"]
    order = aut_order(sizes, maps)
    if tuple(data["degrees"]) != tuple(sizes) or data["order"] != order:
        return f"order {data['order']} != {order}"
    gens = []
    for g in data["generators"]:
        perms = tuple(tuple(c["values"]) for c in g["components"])
        if (len(perms) != len(sizes)
                or any(sorted(p) != list(range(n))
                       for p, n in zip(perms, sizes))
                or any(perms[i + 1][v[x]] != v[perms[i][x]]
                       for i, v in enumerate(maps) for x in range(sizes[i]))):
            return f"generator {perms} is not an automorphism"
        gens.append(perms)
    identity = tuple(tuple(range(n)) for n in sizes)
    seen, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                c = _compose(e, g)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    if len(seen) != order:
        return f"generators give a group of order {len(seen)}, not {order}"
    return ""


def equivariant_count(table, act_x, act_y):
    """Brute force over all maps X -> Y: how many commute with the action."""
    nx, ny = len(act_x[0]), len(act_y[0])
    return sum(all(f[act_x[g][a]] == act_y[g][f[a]]
                   for g in range(len(table)) for a in range(nx))
               for f in itertools.product(range(ny), repeat=nx))


def components(n_vertices, edges):
    """Connected components of a graph, by union-find."""
    parent = list(range(n_vertices))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(a) for a in range(n_vertices)})


def _expected_count(expect):
    """|Y|^|X| for the morphism-space checks, else the brute-force count."""
    if "count" in expect:
        return expect["count"]
    return equivariant_count(expect["table"], expect["x"], expect["y"])


def _counts(keys):
    def check(task, text):
        data = json.loads(text)
        want = _expected_count(task.expect)
        got = {key: data[key] for key in keys}
        if not data["passed"] or any(v != want for v in got.values()):
            return f"counts {got}, expected {want} each"
        return ""
    return check


def _hocolim(task, text):
    data = json.loads(text)
    hom = {int(n): d for n, d in data["homology"].items()}
    if task.expect["ambient"]:
        want, euler = {}, 0
    else:
        edges = task.expect["edges"]
        h0 = components(task.expect["n_vertices"], edges)
        h1 = len(edges) - task.expect["n_vertices"] + h0
        want, euler = {0: h0, 1: h1}, h0 - h1
    if (0 not in hom or any(d != want.get(n, 0) for n, d in hom.items())
            or data["euler_characteristic"] != euler):
        return f"homology {hom} (euler {data['euler_characteristic']})"
    return ""


_CHECKS = {
    "enumerate-diagrams": _enumerate,
    "verify-monad": _monad,
    "aut": _aut,
    "galois-fixed": _counts(("equivariant_maps", "fixed_morphisms")),
    "verify-mcffe": _counts(("morphisms", "set_maps")),
    "verify-mdffe": _counts(("equalizer", "equalizer_recheck",
                             "transposed_morphisms", "set_maps")),
    "hocolim": _hocolim,
}


def check(task, status, text):
    """Empty if the command exited 0 and its output is right, else why not."""
    if status != 0:
        return f"exit status {status}"
    try:
        return _CHECKS[task.kind](task, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"
