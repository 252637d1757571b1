"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math

import pytest

from repro.analysis import AnalysisConfig, analyze
from repro.inlining.decisions import DecisionEngine
from repro.inlining.pipeline import optimize
from repro.ir import compile_source, validate_program
from repro.runtime import interp, run_program

#: The paper's running example (Figures 1-5), used across many tests.
RECTANGLE_SOURCE = """
class Point {
  var x_pos; var y_pos;
  def init(x, y) { this.x_pos = x; this.y_pos = y; }
  def abs() { return sqrt(this.x_pos*this.x_pos + this.y_pos*this.y_pos); }
  def area(p) { return abs(this.x_pos - p.x_pos) * abs(this.y_pos - p.y_pos); }
}
class Point3D : Point { var z_pos; }
class Rectangle {
  var inline lower_left; var inline upper_right;
  def init(ll, ur) { this.lower_left = ll; this.upper_right = ur; }
  def area() { return this.lower_left.area(this.upper_right); }
}
class List {
  var head_item; var tail;
  def init(h, t) { this.head_item = h; this.tail = t; }
}
def head(l) { return l.head_item; }
def do_rectangle(ll, ur) {
  var r = new Rectangle(ll, ur);
  print(r.area());
  var l1 = new List(r.lower_left, nil);
  var l2 = new List(r.upper_right, nil);
  print(head(l1).abs());
  print(head(l2).abs());
}
def main() {
  var p1 = new Point(1.0, 2.0);
  var p2 = new Point(3.0, 4.0);
  do_rectangle(p1, p2);
  var p3 = new Point3D(0.0, 0.0);
  var p4 = new Point3D(5.0, 5.0);
  do_rectangle(p3, p4);
}
"""


#: ``TIER_UP_HEAT`` values the tier tests force: tier 1 never, tier 1 on
#: every callable's first call, and tier 1 entered mid-loop (a callable
#: called once tiers up at its third taken back-edge, by on-stack
#: replacement).
FORCED_TIERS = {"tier1-never": math.inf, "tier1-immediately": 0, "tier1-osr": 3}


@pytest.fixture
def tier1_immediately(monkeypatch):
    """Compile every callable to its tier-1 function on its first call."""
    monkeypatch.setattr(interp, "TIER_UP_HEAT", FORCED_TIERS["tier1-immediately"])


def run_source(source: str, **kwargs):
    """Compile and interpret a source string; returns the RunResult."""
    program = compile_source(source)
    validate_program(program)
    return run_program(program, **kwargs)


def output_of(source: str) -> list[str]:
    return run_source(source).output


def optimize_source(source: str, **kwargs):
    """Compile and optimize; returns the OptimizeReport."""
    return optimize(compile_source(source), **kwargs)


def check_equivalence(source: str, **optimize_kwargs) -> tuple:
    """The backbone invariant: the transformed program must produce
    identical observable output.  Returns (base RunResult, opt RunResult,
    OptimizeReport)."""
    program = compile_source(source)
    base = run_program(program)
    report = optimize(program, **optimize_kwargs)
    validate_program(report.program)
    transformed = run_program(report.program)
    assert transformed.output == base.output, (
        f"output diverged:\n  base {base.output}\n  opt  {transformed.output}"
    )
    return base, transformed, report


def plan_for(source: str, config: AnalysisConfig | None = None):
    """Analyze a source string and return the inlining plan."""
    program = compile_source(source)
    result = analyze(program, config)
    return DecisionEngine(result).plan()


def accepted_names(plan) -> set[str]:
    return {c.describe() for c in plan.accepted()}


def rejected_names(plan) -> dict[str, str]:
    return {c.describe(): c.reject_reason for c in plan.rejected()}


@pytest.fixture(scope="session")
def bench_runs():
    """All four paper benchmarks, every build, run serially (cached)."""
    from repro.bench import BENCHMARKS, run_named

    return {name: run_named(name) for name in BENCHMARKS}


@pytest.fixture(scope="session")
def perf_runs():
    """The serial Figure-17 suite (cached; the parallel differential
    test compares against this same run)."""
    from repro.bench import run_performance_suite

    return run_performance_suite()


@pytest.fixture(scope="session")
def rectangle_program():
    return compile_source(RECTANGLE_SOURCE)


@pytest.fixture(scope="session")
def rectangle_analysis(rectangle_program):
    return analyze(rectangle_program)


@pytest.fixture(scope="session")
def rectangle_plan(rectangle_analysis):
    return DecisionEngine(rectangle_analysis).plan()
