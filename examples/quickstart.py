#!/usr/bin/env python3
"""Quickstart: the paper's Point/Rectangle example, end to end.

Compiles the running example from §2 of *Automatic Inline Allocation of
Objects* (Dolby, PLDI 1997), runs the object-inlining optimizer, shows
what the analysis decided, and compares the two builds on the VM.

Run:  python examples/quickstart.py
"""

from repro import Session
from repro.ir import format_callable

SOURCE = """
class Point {
  var x_pos; var y_pos;
  def init(x, y) { this.x_pos = x; this.y_pos = y; }
  def abs() { return sqrt(this.x_pos*this.x_pos + this.y_pos*this.y_pos); }
  def area(p) { return abs(this.x_pos - p.x_pos) * abs(this.y_pos - p.y_pos); }
}
class Rectangle {
  var lower_left; var upper_right;
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
}
"""


def main() -> None:
    session = Session(SOURCE, path="quickstart.icc")

    print("=== running the uniform-model program ===")
    base = session.run()
    for line in base.output:
        print(" ", line)

    print("\n=== object inlining decisions ===")
    report = session.optimize()
    for candidate in report.plan.candidates.values():
        verdict = "inlined" if candidate.accepted else f"kept as reference ({candidate.reject_reason})"
        print(f"  {candidate.describe():25s} -> {verdict}")

    print("\n=== transformed Rectangle layout ===")
    for name, cls in report.program.classes.items():
        if cls.source_name == "Rectangle" and name != "Rectangle":
            print(f"  class {name}: fields = {cls.fields}")

    print("\n=== specialized Rectangle::area clone ===")
    for name, cls in report.program.classes.items():
        if cls.source_name == "Rectangle" and "area" in cls.methods:
            print(format_callable(cls.methods["area"]))
            break

    print("\n=== performance on the instrumented VM ===")
    optimized = session.run("inline")
    assert optimized.output == base.output, "outputs must match!"
    for label, stats in (("uniform", base.stats), ("inlined", optimized.stats)):
        print(
            f"  {label:8s} cycles={stats.cycles():6d}  heap allocs={stats.allocations}"
            f"  stack allocs={stats.stack_allocations}"
            f"  heap reads={stats.heap_reads}  dispatches={stats.dynamic_dispatches}"
        )
    print(f"\n  speedup: {base.stats.cycles() / optimized.stats.cycles():.2f}x")


if __name__ == "__main__":
    main()
