#!/usr/bin/env python3
"""Merging cons cells with their data: the Silo scenario.

A small discrete-event shop: jobs queue at a counter, each enqueue wraps
a freshly created ticket record in a list cell.  C++ cannot declare a
list cell's data field inline (a list node conceptually *refers to* its
data), but the automatic optimizer proves each ticket is owned by its
cell and merges them — halving allocations on the queue path.

It also shows a limitation faithfully: tickets placed into the recycled
"audit trail" are aliased, so those cells keep their reference.

Run:  python examples/event_sim.py
"""

from repro import Session

SOURCE = """
class Ticket {
  var job_id; var stamped_at;
  def init(job_id, stamped_at) {
    this.job_id = job_id;
    this.stamped_at = stamped_at;
  }
  def age(now) { return now - this.stamped_at; }
}

class Cell {
  var ticket;   // merged with its data by object inlining
  var next;
  def init(t, n) { this.ticket = t; this.next = n; }
}

class AuditCell {
  var ticket;   // aliased with live tickets: stays a reference
  var next;
  def init(t, n) { this.ticket = t; this.next = n; }
}

var queue_head = nil;
var queue_tail = nil;
var audit = nil;
var served = 0;
var waited = 0;

def enqueue(job_id, now) {
  var cell = new Cell(new Ticket(job_id, now), nil);
  if (queue_tail == nil) { queue_head = cell; } else { queue_tail.next = cell; }
  queue_tail = cell;
}

def serve(now) {
  var cell = queue_head;
  queue_head = cell.next;
  if (queue_head == nil) { queue_tail = nil; }
  var t = cell.ticket;
  served = served + 1;
  waited = waited + t.age(now);
  // The audited ticket flows out of a field: not merged (by design).
  audit = new AuditCell(t, audit);
}

def main() {
  var now = 0;
  for (var wave = 0; wave < 40; wave = wave + 1) {
    for (var j = 0; j < 5; j = j + 1) { enqueue(wave * 5 + j, now); now = now + 1; }
    for (var s = 0; s < 5; s = s + 1) { serve(now); now = now + 2; }
  }
  var audits = 0;
  var a = audit;
  while (a != nil) { audits = audits + 1; a = a.next; }
  print("served", served, "total wait", waited, "audited", audits);
}
"""


def main() -> None:
    session = Session(SOURCE, path="event_sim.icc")
    base = session.run()
    report = session.optimize()
    optimized = session.run("inline")
    assert optimized.output == base.output

    print("simulation output:", base.output[0])
    print()
    for candidate in report.plan.candidates.values():
        verdict = "MERGED" if candidate.accepted else f"reference ({candidate.reject_reason})"
        print(f"  {candidate.describe():22s} {verdict}")
    print()
    print(
        f"allocations: {base.stats.allocations} -> {optimized.stats.allocations} "
        f"(+{optimized.stats.stack_allocations} stack)"
    )
    print(f"speedup: {base.stats.cycles() / optimized.stats.cycles():.2f}x")


if __name__ == "__main__":
    main()
