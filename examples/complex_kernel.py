#!/usr/bin/env python3
"""Arrays of objects → inline (parallel) arrays: the OOPACK scenario.

A numeric kernel over arrays of complex-number objects.  In the uniform
object model every element is a heap object behind a reference; object
inlining converts the arrays to structure-of-arrays layout (the paper's
Fortran-style parallel arrays), elides the per-element allocations, and
turns element access into plain address arithmetic.

Run:  python examples/complex_kernel.py [N]
"""

import sys

from repro import Session

TEMPLATE = """
class Complex {
  var re; var im;
  def init(re, im) { this.re = re; this.im = im; }
  def norm() { return this.re * this.re + this.im * this.im; }
}

var N = %(n)d;

def axpy(alpha, x, y, n) {
  // y[i] = alpha * x[i] + y[i], complex.
  for (var i = 0; i < n; i = i + 1) {
    var xi = x[i];
    var yi = y[i];
    y[i] = new Complex(alpha * xi.re + yi.re, alpha * xi.im + yi.im);
  }
}

def main() {
  var x = inline_array(N);
  var y = inline_array(N);
  for (var i = 0; i < N; i = i + 1) {
    x[i] = new Complex(float(i), float(N - i));
    y[i] = new Complex(0.5, -0.5);
  }
  for (var round = 0; round < 4; round = round + 1) {
    axpy(0.25, x, y, N);
  }
  var total = 0.0;
  for (var j = 0; j < N; j = j + 1) { total = total + y[j].norm(); }
  print("checksum", total);
}
"""


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 256
    session = Session(TEMPLATE % {"n": n}, path="complex_kernel.icc")

    base = session.run()
    report = session.optimize()
    optimized = session.run("inline")
    assert optimized.output == base.output

    print("output:", base.output[0])
    print()
    accepted = [c.describe() for c in report.plan.accepted()]
    print("inlined locations:", ", ".join(accepted))
    print()
    header = f"{'':10s} {'cycles':>10s} {'allocs':>8s} {'stack':>7s} {'misses':>8s} {'miss rate':>10s}"
    print(header)
    for label, stats in (("uniform", base.stats), ("inlined", optimized.stats)):
        print(
            f"{label:10s} {stats.cycles():>10d} {stats.allocations:>8d} "
            f"{stats.stack_allocations:>7d} {stats.cache.misses:>8d} "
            f"{stats.cache.miss_rate:>10.4f}"
        )
    print(f"\nspeedup: {base.stats.cycles() / optimized.stats.cycles():.2f}x")
    print(
        "\nThe element state now lives inside the arrays themselves "
        "(structure-of-arrays for two-field elements), so the kernel "
        "streams memory instead of chasing references."
    )


if __name__ == "__main__":
    main()
