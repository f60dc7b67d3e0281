"""Workloads: seeded input generators and the CLI invocations of one pass.

Every workload is a list of ``isodiam`` command lines run in-process
through ``isodiam.cli.run``. The workload seed drives the generated input
files and every ``--seed`` passed to the CLI, so one seed always gives
the same inputs and the same report bytes. Generated point sets are a
fixed low-discrepancy layout moved by a small seeded jitter, and poison
patches move by whole cells: the seed changes the inputs but not the
amount of work, so runs on different seeds can be compared.

All paths are relative; a pass runs with the working directory set to the
run's own directory, which keeps the manifests (and so the report bytes)
independent of where that directory lives.

This module uses only the standard library so that importing it does not
pull numpy in before the benchmark times ``import isodiam.cli``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Pinned manifest timestamp, so reruns compare byte for byte.
TIMESTAMP = "2000-01-01T00:00:00Z"

# Poisoned-pie set-up shared by every poison invocation.
PIE_R = 3.0
PIE_GRAMS = 1.5


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a pass.

    ``outputs`` are the files the call writes (report first). ``work`` is
    the number of throughput units the call performs: annealing moves on
    ``anneal``, Monte Carlo bites on ``pie`` and ``tour``; calls with
    ``work == 0`` do not count towards ``throughput_per_s``. ``check``
    names the oracle in ``oracles.CHECKS`` and ``params`` are its keyword
    arguments.
    """

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    expect_exit: int = 0
    work: int = 0
    check: str | None = None
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """A workload's generated input files and the calls of one pass. Why
    each workload was chosen is in the docstring of the function that
    builds it."""

    name: str
    inputs: dict[str, str]
    invocations: tuple[Invocation, ...]


# ---------------------------------------------------------------- generators


def _halton(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def _in_u_delta(x: float, y: float, delta: float) -> bool:
    half = (delta - 2.0) / 2.0
    return (x + half) ** 2 + y * y <= 1.0 or (x - half) ** 2 + y * y <= 1.0


def _jittered(rng: random.Random, x: float, y: float, sigma: float, inside) -> tuple[float, float]:
    for _ in range(64):
        jx, jy = x + rng.gauss(0.0, sigma), y + rng.gauss(0.0, sigma)
        if inside(jx, jy):
            return jx, jy
    return x, y


def u_delta_points(rng: random.Random, n: int, delta: float, sigma: float = 0.005) -> list[tuple[float, float]]:
    """n points of U_delta (two unit disks, centres delta - 2 apart): a
    Halton layout in the bounding box, each point jittered inside U_delta.
    Any 5 of them hold 3 in one unit disk, so T(5,3) holds at threshold 2."""
    half = (delta - 2.0) / 2.0
    inside = lambda x, y: _in_u_delta(x, y, delta)  # noqa: E731
    out: list[tuple[float, float]] = []
    i = 1
    while len(out) < n:
        x = -1.0 - half + (2.0 + 2.0 * half) * _halton(i, 2)
        y = -1.0 + 2.0 * _halton(i, 3)
        i += 1
        if inside(x, y):
            out.append(_jittered(rng, x, y, sigma, inside))
    return out


def spread_points(rng: random.Random) -> list[tuple[float, float]]:
    """12 points on a circle of radius 1.6 and 12 inside radius 0.9.

    Ring points a quarter turn apart are 1.6*sqrt(2) > 2 from each other,
    so T(4,2) fails at threshold 2 and ``check`` reports a witness."""
    out = []
    for k in range(12):
        t = 2.0 * math.pi * k / 12.0
        out.append(_jittered(rng, 1.6 * math.cos(t), 1.6 * math.sin(t), 0.005, lambda x, y: True))
    i = 1
    while len(out) < 24:
        x, y = -0.9 + 1.8 * _halton(i, 2), -0.9 + 1.8 * _halton(i, 3)
        i += 1
        if x * x + y * y <= 0.81:
            out.append(_jittered(rng, x, y, 0.005, lambda a, b: a * a + b * b <= 0.81))
    return out


def disk_points(rng: random.Random, n: int, radius: float) -> list[tuple[float, float]]:
    out = []
    for _ in range(n):
        r = radius * math.sqrt(rng.random())
        t = 2.0 * math.pi * rng.random()
        out.append((r * math.cos(t), r * math.sin(t)))
    return out


def _disk_cells(radius: float, h: float, di: int, dj: int) -> list[list[int]]:
    """Cells of pitch h whose centres lie in the disk of the given radius
    about the cell corner (0, 0), shifted by (di, dj) cells."""
    m = math.ceil(radius / h) + 1
    return [
        [i + di, j + dj]
        for i in range(-m, m)
        for j in range(-m, m)
        if ((i + 0.5) * h) ** 2 + ((j + 0.5) * h) ** 2 <= radius * radius
    ]


def _patch(rng: random.Random, radius: float, grams: float) -> dict:
    h = 0.05
    cells = _disk_cells(radius, h, rng.randint(-10, 10), rng.randint(-10, 10))
    return {"grams": grams, "region": {"origin": [0.0, 0.0], "h": h, "cells": sorted(cells)}}


def patch_strategy(rng: random.Random) -> dict:
    """All the poison on a 316-cell disk patch (radius 0.5, pitch 0.05)."""
    return {"masses": [], "density": _patch(rng, 0.5, PIE_GRAMS)}


def mixed_strategy(rng: random.Random) -> dict:
    """Three 0.3 g masses near the centre plus a 716-cell patch (radius 0.75)."""
    masses = []
    for k in range(3):
        t = 2.0 * math.pi * (k / 3.0 + 0.05 * rng.random())
        masses.append([0.4 * math.cos(t), 0.4 * math.sin(t), 0.3])
    return {"masses": masses, "density": _patch(rng, 0.75, PIE_GRAMS - 0.9)}


def masses_strategy(rng: random.Random) -> dict:
    """Six 0.25 g masses on a hexagon of radius 0.6, turned by a seeded
    angle: a bite kills when it holds four of them."""
    turn = 2.0 * math.pi * rng.random()
    masses = []
    for k in range(6):
        t = turn + 2.0 * math.pi * k / 6.0
        masses.append([0.6 * math.cos(t) + rng.gauss(0.0, 0.005), 0.6 * math.sin(t) + rng.gauss(0.0, 0.005), 0.25])
    return {"masses": masses}


def arc_set(rng: random.Random) -> dict:
    """Eight disjoint arcs on the circle of radius 3, already normalized."""
    r = 3.0
    arcs = []
    for k in range(8):
        start = 2.0 * math.pi * k / 8.0 + 0.05 * rng.random()
        arcs.append([start, start + 0.35 + 0.1 * rng.random()])
    return {"r": r, "arcs": arcs}


def _csv(points: list[tuple[float, float]]) -> str:
    return "".join(f"{x!r},{y!r}\n" for x, y in points)


# ---------------------------------------------------------------- workloads


def _common(out: str) -> tuple[str, ...]:
    return ("--out", out, "--timestamp", TIMESTAMP)


def anneal(seed: int) -> Workload:
    """The annealing search in the window 4/sqrt(3) < delta < 4.

    Loads ``search`` (the move loop, about two thirds of the time) and
    ``diameters.diam3`` (two sampled calls per chain on ~3.1k-point
    supports), plus ``regions`` rasterize/hull/corners and ``svgplot``.
    ``poisoning`` and the subset scans are bypassed. The first call is the
    README line; the second, at delta = 3.6, has larger far sets and so
    costs more per move.
    """
    s = str(seed)
    single = ("--chains", "1", "--threads", "1")
    return Workload(
        name="anneal",
        inputs={},
        invocations=(
            Invocation(
                "search-3",
                ("search", "--delta", "3", "--h", "0.05", "--iterations", "20000", "--seed", s, *single,
                 "--region-out", "best3.json", "--svg", "best3.svg", *_common("search3.json")),
                ("search3.json", "best3.json", "best3.svg"),
                work=20000,
                check="search",
                params={"delta": 3.0, "h": 0.05, "iterations": 20000, "region_file": "best3.json"},
            ),
            Invocation(
                "search-3.6",
                ("search", "--delta", "3.6", "--h", "0.05", "--iterations", "5000", "--seed", s, *single,
                 *_common("search36.json")),
                ("search36.json",),
                work=5000,
                check="search",
                params={"delta": 3.6, "h": 0.05, "iterations": 5000, "region_file": None},
            ),
        ),
    )


def pie(seed: int) -> Workload:
    """Poisoned-pie Monte Carlo on density patches.

    Loads the O(samples x cells) density kernel in ``poisoning`` (both the
    Monte Carlo and the lethal-region raster use it), then ``regions``
    (lethal-region diameter) and ``svgplot``. ``search`` and ``diameters``
    are bypassed. The second call mixes point masses with a larger patch at
    fewer samples.
    """
    rng = random.Random(f"pie/{seed}")
    s = str(seed)
    grams = repr(PIE_GRAMS)
    return Workload(
        name="pie",
        inputs={
            "patch.json": json.dumps(patch_strategy(rng)),
            "mixed.json": json.dumps(mixed_strategy(rng)),
        },
        invocations=(
            Invocation(
                "poison-patch",
                ("poison", "--R", repr(PIE_R), "--h-available", grams, "--strategy", "patch.json",
                 "--samples", "400000", "--grid", "0.02", "--svg", "pie.svg", "--seed", s, "--threads", "1",
                 *_common("poison-patch.json")),
                ("poison-patch.json", "pie.svg"),
                work=400000,
                check="poison",
            ),
            Invocation(
                "poison-mixed",
                ("poison", "--R", repr(PIE_R), "--h-available", grams, "--strategy", "mixed.json",
                 "--samples", "100000", "--grid", "0.04", "--seed", s, "--threads", "1",
                 *_common("poison-mixed.json")),
                ("poison-mixed.json",),
                work=100000,
                check="poison",
            ),
        ),
    )


def tour(seed: int) -> Workload:
    """Every other README subcommand, each run once per pass.

    Loads the ``diameters`` subset scans (``diam_ab``, ``tab_check`` in its
    generic and bitmask forms, the budget guard), ``diam3`` on 2,000
    points, ``geometry`` (CSV loading, hull, Welzl enclosing circle),
    ``bounds``, ``svgplot`` curves and the per-call ``cli`` overhead. The
    point-mass path of ``poisoning`` runs here (the density path runs in
    ``pie``), so a change to one dose path shows on one workload and
    should leave the other flat. ``search`` is bypassed. The point-mass
    call draws 6M samples, not 2M: at 2M it lasts about 0.2 s and its rate,
    this workload's ``throughput_per_s``, spread 11% between runs.
    """
    rng = random.Random(f"tour/{seed}")
    s = str(seed)
    inputs = {
        "u50.csv": _csv(u_delta_points(rng, 50, 3.0)),
        "spread.csv": _csv(spread_points(rng)),
        "disk2000.csv": _csv(disk_points(rng, 2000, 1.5)),
        "masses.json": json.dumps(masses_strategy(rng)),
        "arcs.json": json.dumps(arc_set(rng)),
    }
    return Workload(
        name="tour",
        inputs=inputs,
        invocations=(
            Invocation("diameters-50", ("diameters", "u50.csv", "--ab", "4,2", "--ab", "5,3", *_common("d50.json")),
                       ("d50.json",), check="diameters", params={"points": "u50.csv", "triples": True}),
            Invocation("check-holds", ("check", "u50.csv", "--a", "5", "--b", "3", "--threshold", "2",
                                       *_common("c53.json")),
                       ("c53.json",), check="check", params={"points": "u50.csv", "diameters": "d50.json"}),
            Invocation("check-witness", ("check", "spread.csv", "--a", "4", "--b", "2", "--threshold", "2",
                                         *_common("c42.json")),
                       ("c42.json",), check="check", params={"points": "spread.csv", "diameters": None}),
            Invocation("check-budget", ("check", "disk2000.csv", "--a", "5", "--b", "3", "--threshold", "2",
                                        *_common("refused.json")),
                       (), expect_exit=3),
            Invocation("jung-2000", ("jung", "disk2000.csv", *_common("j2000.json")),
                       ("j2000.json",), check="jung", params={"points": "disk2000.csv"}),
            Invocation("diameters-2000", ("diameters", "disk2000.csv", *_common("d2000.json")),
                       ("d2000.json",), check="diameters", params={"points": "disk2000.csv", "triples": False}),
            Invocation("bounds", ("bounds", "--delta-min", "1", "--delta-max", "4.5", "--steps", "400",
                                  "--csv", "bounds.csv", "--svg", "bounds.svg", *_common("bounds.json")),
                       ("bounds.json", "bounds.csv", "bounds.svg"), check="bounds", params={"steps": 400}),
            Invocation("conjecture", ("conjecture", "--steps", "151", "--svg", "conjecture.svg",
                                      *_common("conjecture.json")),
                       ("conjecture.json", "conjecture.svg"), check="conjecture", params={"steps": 151}),
            Invocation("poison-masses", ("poison", "--R", repr(PIE_R), "--h-available", repr(PIE_GRAMS),
                                         "--strategy", "masses.json", "--samples", "6000000", "--grid", "0.02",
                                         "--seed", s, "--threads", "1", *_common("poison-masses.json")),
                       ("poison-masses.json",), work=6000000, check="poison"),
            Invocation("circle", ("circle", "arcs.json", *_common("circle.json")),
                       ("circle.json",), check="circle", params={"arcs": "arcs.json"}),
        ),
    )


WORKLOADS = {"anneal": anneal, "pie": pie, "tour": tour}


def write_inputs(workload: Workload, directory: Path) -> dict[str, str]:
    """Write the workload's input files; return their sha256 digests."""
    digests = {}
    for name, text in sorted(workload.inputs.items()):
        data = text.encode("utf-8")
        (directory / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests
