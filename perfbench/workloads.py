"""Seeded task lists for the benchmark workloads, and the files they read.

Every input file is written here from plain dicts and lists, never from
library objects, so the bytes depend only on the workload and the seed and
stay identical on every commit of the library.  A task is one ``motivic-kit``
command line; its ``expect`` holds what the oracle needs to check the output.

The size ladders and the shapes of the inputs are fixed, so a workload
costs about the same on every seed; the seed draws the labellings of the
group actions, diagrams and graphs, and the order of the tasks.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("descent", "census", "cube")


@dataclass(frozen=True)
class Task:
    """One CLI invocation: argv, what its oracle expects, its size key."""
    kind: str
    argv: tuple
    expect: dict = field(default_factory=dict, compare=False)
    size_key: tuple = ()


# --- the seven groups of order at most 6, as multiplication tables ---------

def _cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def _klein_table():
    return [[a ^ b for b in range(4)] for a in range(4)]


def _s3_table():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(3))] for q in perms]
            for p in perms]


GROUPS = {
    "c2": _cyclic_table(2), "c3": _cyclic_table(3), "c4": _cyclic_table(4),
    "c5": _cyclic_table(5), "c6": _cyclic_table(6), "v4": _klein_table(),
    "s3": _s3_table(),
}


def group_actions(table, size):
    """Every left action of the group on {0..size-1}, as tuples of images.

    action[g][x] is g.x; the list is found by assigning permutations to a
    greedy generating set and closing under the table.
    """
    order = len(table)
    identity = next(e for e in range(order)
                    if all(table[e][g] == g for g in range(order)))
    gens, reached = [], {identity}
    for g in range(order):
        if g not in reached:
            gens.append(g)
            reached = _closure(table, gens, identity)
    perms = list(itertools.permutations(range(size)))
    out = []
    for images in itertools.product(perms, repeat=len(gens)):
        act = {identity: tuple(range(size))}
        frontier, ok = [identity], True
        while frontier and ok:
            nxt = []
            for a in frontier:
                for g, img in zip(gens, images):
                    b = table[g][a]
                    m = tuple(img[act[a][x]] for x in range(size))
                    if b not in act:
                        act[b] = m
                        nxt.append(b)
                    elif act[b] != m:
                        ok = False
            frontier = nxt
        if ok and all(act[table[g][h]] == tuple(act[g][act[h][x]]
                                                for x in range(size))
                      for g in range(order) for h in range(order)):
            out.append(tuple(act[g] for g in range(order)))
    return out


def _closure(table, gens, identity):
    seen, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = table[g][a]
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


def orbit_count(action):
    return len({frozenset(img[x] for img in action)
                for x in range(len(action[0]))})


def relabel_action(action, perm):
    """The same action with point x renamed perm[x]."""
    out = []
    for img in action:
        new = [0] * len(perm)
        for x, y in enumerate(img):
            new[perm[x]] = perm[y]
        out.append(tuple(new))
    return tuple(out)


def _gset_json(table, action):
    return {"group": {"order": len(table), "table": table},
            "carrier": {"size": len(action[0])},
            "action": [list(a) for a in action]}


# --- chain diagrams ----------------------------------------------------------

def diagram_json(sizes, maps):
    return {"sets": [{"size": n} for n in sizes],
            "maps": [{"dom": sizes[i], "cod": sizes[i + 1], "values": list(v)}
                     for i, v in enumerate(maps)]}


# --- graph covers as cube diagrams ------------------------------------------

def _matrix_json(rows, cols, ones):
    """Dense rational matrix JSON from {(row, col): integer value}."""
    entries = ["0"] * (rows * cols)
    for (r, c), v in ones.items():
        entries[r * cols + c] = str(v)
    return {"rows": rows, "cols": cols, "entries": entries}


def _graph_complex(verts, edges):
    """Degrees 0..1: vertices, edges, and d(u, v) = v - u for u < v."""
    index = {v: i for i, v in enumerate(verts)}
    d = {}
    for j, (u, v) in enumerate(edges):
        d[(index[u], j)] = -1
        d[(index[v], j)] = 1
    return {"lo": 0, "hi": 1, "dims": {"0": len(verts), "1": len(edges)},
            "differentials": {"1": _matrix_json(len(verts), len(edges), d)}}


def _inclusion(small, big):
    index = {x: i for i, x in enumerate(big)}
    return _matrix_json(len(big), len(small),
                        {(index[x], j): 1 for j, x in enumerate(small)})


def _key(subset):
    return ",".join(str(i) for i in sorted(subset))


def cover_json(shape, perm, n_vertices, n_edges, parts, extra, ambient):
    """A random graph covered by `parts` subgraphs, as a hocolim input.

    `shape` draws the graph and the cover: the edges are dealt round-robin
    in a random order, then every part takes `extra` more random edges from
    the others, so part sizes are fixed and parts overlap.  A part holds the
    endpoints of its edges, and a vertex on no edge joins one random part,
    so all intersections are subgraphs and Mayer-Vietoris applies.  Vertex
    v is then renamed perm[v].
    """
    pairs = list(itertools.combinations(range(n_vertices), 2))
    edges = sorted(shape.sample(pairs, n_edges))
    dealt = shape.sample(edges, n_edges)
    part_edges = [set(dealt[i::parts]) for i in range(parts)]
    for i in range(parts):
        part_edges[i].update(shape.sample(sorted(set(edges) - part_edges[i]),
                                          extra))
    part_verts = [set() for _ in range(parts)]
    for i in range(parts):
        for u, v in part_edges[i]:
            part_verts[i].update((u, v))
    covered = set().union(*part_verts)
    for v in range(n_vertices):
        if v not in covered:
            part_verts[shape.randrange(parts)].add(v)

    def rename(es):
        return {tuple(sorted((perm[u], perm[v]))) for u, v in es}

    edges = sorted(rename(edges))
    part_edges = [rename(es) for es in part_edges]
    part_verts = [{perm[v] for v in vs} for vs in part_verts]
    inter = {}
    for r in range(1, parts + 1):
        for s in itertools.combinations(range(parts), r):
            inter[s] = (sorted(set.intersection(*(part_verts[i] for i in s))),
                        sorted(set.intersection(*(part_edges[i] for i in s))))
    payload = {"index_size": parts,
               "vertices": {_key(s): _graph_complex(*inter[s]) for s in inter},
               "edges": {}}
    for s, (verts, es) in inter.items():
        for el in s:
            small = tuple(i for i in s if i != el)
            if small:
                sv, se = inter[small]
                payload["edges"][f"{_key(s)}->{_key(small)}"] = {
                    "0": _inclusion(verts, sv), "1": _inclusion(es, se)}
    if ambient:
        all_verts = list(range(n_vertices))
        payload["ambient"] = _graph_complex(all_verts, edges)
        payload["ambient_edges"] = {
            str(i): {"0": _inclusion(inter[(i,)][0], all_verts),
                     "1": _inclusion(inter[(i,)][1], edges)}
            for i in range(parts)}
    sizes = tuple(len(x) for s in sorted(inter) for x in inter[s])
    return payload, {"n_vertices": n_vertices, "edges": edges,
                     "ambient": ambient}, sizes


# --- workloads -----------------------------------------------------------------

# (|X|, |Y|) for galois-fixed, the same nine carrier pairs for every group,
# sizes 1..4 and at most 27 set maps.
GALOIS_SIZES = ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2), (2, 4),
                (4, 2), (3, 3))
# (|X|, |Y|) ladders for the morphism-space checks.
MCFFE_SIZES = tuple((x, y) for x in range(1, 7) for y in range(1, 7)
                    if y ** x <= 64)
MDFFE_SIZES = tuple((x, y) for x in range(1, 7) for y in range(1, 7)
                    if y ** x <= 27)


def descent_tasks(rng, write, groups=GROUPS, galois_sizes=GALOIS_SIZES,
                  mcffe_sizes=MCFFE_SIZES, mdffe_sizes=MDFFE_SIZES):
    tasks = []
    for name, table in sorted(groups.items()):
        # one action per carrier size, the first with the fewest orbits, so
        # the cost of a slot does not depend on the seed; the seed relabels it
        spread = {n: min(group_actions(table, n), key=orbit_count)
                  for n in sorted({n for pair in galois_sizes for n in pair})}
        for nx, ny in galois_sizes:
            ax = relabel_action(spread[nx], rng.sample(range(nx), nx))
            ay = relabel_action(spread[ny], rng.sample(range(ny), ny))
            base = f"gset-{name}-{nx}-{ny}"
            px = write(f"{base}-x.json", _gset_json(table, ax))
            py = write(f"{base}-y.json", _gset_json(table, ay))
            tasks.append(Task("galois-fixed",
                              ("galois-fixed", "--x", px, "--y", py,
                               "--format", "json"),
                              {"table": table, "x": ax, "y": ay},
                              (nx, ny)))
    for cmd, sizes in (("verify-mcffe", mcffe_sizes),
                       ("verify-mdffe", mdffe_sizes)):
        for x, y in sizes:
            tasks.append(Task(cmd, (cmd, "--x", str(x), "--y", str(y),
                                    "--format", "json"),
                              {"count": y ** x}, (x, y)))
    return tasks


# The census ladders: every bound pair up to 4,4 and the k=3 bounds with
# one 3, for the enumeration; the monad check one level down, up to 4,3 and
# 3,4.  The enumeration 4,4, enumeration 3,3,3 and monad 4,4 rungs are left
# out: each runs for seconds as one timed call, longer than the bursts in
# which a shared machine runs at full speed, so its best-of-passes time
# would swing with the machine's load and swamp the rest of the list.
_PAIRS = tuple((a, b) for a in range(1, 5) for b in range(1, 5))
_TRIPLES = ((2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2))
ENUM_LADDER = (tuple((2, b) for b in _PAIRS if b != (4, 4))
               + tuple((3, b) for b in _TRIPLES))
MONAD_LADDER = (tuple((1, b) for b in _PAIRS if b != (4, 4))
                + tuple((2, b) for b in _TRIPLES))
# Set sizes of the random diagrams given to `aut`, at most the cap of 6;
# the relabeling search visits prod |S_i|! candidates.
AUT_PROFILES = ((6,), (5,), (6, 2), (2, 6), (6, 3), (3, 6), (6, 4), (4, 6),
                (5, 5), (5, 4), (4, 5), (5, 3), (4, 4, 3), (5, 4, 3),
                (3, 4, 5), (4, 4, 4), (6, 3, 2), (5, 5, 2), (3, 3, 3, 3),
                (4, 3, 3, 2), (2, 3, 3, 3), (2, 2, 2, 2, 2))
AUT_PER_PROFILE = 3


def census_tasks(rng, write, enum_ladder=ENUM_LADDER,
                 monad_ladder=MONAD_LADDER, aut_profiles=AUT_PROFILES,
                 aut_per_profile=AUT_PER_PROFILE):
    tasks = []
    for k, bounds in enum_ladder:
        b = ",".join(map(str, bounds))
        tasks.append(Task("enumerate-diagrams",
                          ("enumerate-diagrams", "--k", str(k), "--bounds", b),
                          {"k": k, "bounds": bounds}, (k, bounds)))
    for k, bounds in monad_ladder:
        b = ",".join(map(str, bounds))
        tasks.append(Task("verify-monad",
                          ("verify-monad", "--k", str(k), "--bounds", b,
                           "--format", "json"),
                          {"k": k, "bounds": bounds}, (k, bounds)))
    # the diagram shapes are fixed, so the cost of a slot does not depend on
    # the seed; the seed relabels every set of each diagram
    shapes = random.Random("aut-shapes")
    for profile in aut_profiles:
        for rep in range(aut_per_profile):
            shape = [[shapes.randrange(profile[i + 1])
                      for _ in range(profile[i])]
                     for i in range(len(profile) - 1)]
            perms = [rng.sample(range(n), n) for n in profile]
            maps = [[0] * profile[i] for i in range(len(shape))]
            for i, values in enumerate(shape):
                for x, y in enumerate(values):
                    maps[i][perms[i][x]] = perms[i + 1][y]
            maps = [tuple(m) for m in maps]
            name = "diagram-" + "-".join(map(str, profile)) + f"-{rep}.json"
            path = write(name, diagram_json(profile, maps))
            tasks.append(Task("aut", ("aut", "--diagram", path,
                                      "--format", "json"),
                              {"sizes": profile, "maps": maps}, profile))
    return tasks


# Graph covers: (vertices, edges, parts, extra edges per part) per slot;
# in every run of nine tasks the last three carry the ambient graph and
# take the mapping-cone path.  Each task's graph and cover come from a fixed
# stream, so the cost of a slot does not depend on the seed; the seed
# renames the vertices.
CUBE_SLOTS = ((7, 9, 3, 1), (6, 6, 4, 0), (5, 6, 5, 0))
CUBE_PLAN = tuple((CUBE_SLOTS[i % 3], (i // 3) % 3 == 2) for i in range(108))


def cube_tasks(rng, write, plan=CUBE_PLAN, shapes="cube-shapes"):
    shape = random.Random(shapes)
    tasks = []
    for i, (slot, ambient) in enumerate(plan):
        perm = rng.sample(range(slot[0]), slot[0])
        payload, expect, sizes = cover_json(shape, perm, *slot, ambient)
        path = write(f"cover-{i:03d}.json", payload)
        tasks.append(Task("hocolim", ("hocolim", "--diagram", path,
                                      "--format", "json"),
                          expect, (ambient,) + sizes))
    return tasks


_BUILDERS = {"descent": descent_tasks, "census": census_tasks,
             "cube": cube_tasks}

# One small task of each kind per workload for the untimed warm-up.  Each
# has an argv or input that no timed task has: the trivial group, sizes
# just past the ladders, bounds and profiles off the ladders, and covers
# drawn from a stream of their own.  So nothing the warm-up computes is an
# input that the timed pass repeats.
_WARM_UP = {
    "descent": lambda rng, write: descent_tasks(
        rng, write, {"c1": [[0]]}, ((2, 3),), ((4, 3),), ((2, 6),)),
    "census": lambda rng, write: census_tasks(
        rng, write, ((3, (1, 2, 2)),), ((2, (1, 2, 2)),), ((3, 2),), 1),
    "cube": lambda rng, write: cube_tasks(
        rng, write, ((CUBE_SLOTS[0], False), (CUBE_SLOTS[0], True)),
        "cube-warm-up-shapes"),
}


def _build(builder, rng, outdir):
    os.makedirs(outdir, exist_ok=True)

    def write(name, payload):
        path = os.path.join(outdir, name)
        with open(path, "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True))
        return path

    return builder(rng, write)


def build(workload, seed, outdir):
    """Write the workload's input files under `outdir`; return its tasks.

    The same (workload, seed) gives byte-identical files and the same task
    list, shuffled into a seeded order.
    """
    rng = random.Random(f"{workload}:{seed}")
    tasks = _build(_BUILDERS[workload], rng, outdir)
    rng.shuffle(tasks)
    return tasks


def build_warm_up(workload, seed, outdir):
    """Write the warm-up inputs under `outdir`; return the warm-up tasks."""
    rng = random.Random(f"{workload}:{seed}:warm-up")
    return _build(_WARM_UP[workload], rng, outdir)


def repeat_share(tasks):
    """Share of tasks whose command and input sizes match an earlier task."""
    seen = set()
    repeats = 0
    for t in tasks:
        key = (t.kind, t.size_key)
        repeats += key in seen
        seen.add(key)
    return repeats / len(tasks)


def task_mix(tasks):
    mix = {}
    for t in tasks:
        mix[t.kind] = mix.get(t.kind, 0) + 1
    return dict(sorted(mix.items()))
