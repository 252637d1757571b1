"""Tier 1 of the VM: hot IR callables compiled to Python functions.

:class:`~repro.runtime.interp.Interpreter` runs every callable on its
decoded closures (tier 0) until the callable's heat reaches
``TIER_UP_HEAT``; it then asks :class:`FrameEmitter` for Python source
for the whole callable, compiles it once and runs that function from then
on, entering it mid-loop if a back-edge made it hot.  See
docs/OBSERVABILITY.md "How the VM executes".
"""

from __future__ import annotations

import math
from collections import Counter

from ..ir import model as ir
from .heap import ARRAY_HEADER, OBJECT_HEADER, SLOT_SIZE
from .interp import _BRANCH, _JUMP, _LOOP, _RETURN, Interpreter, ReproRuntimeError, _Code
from .values import ArrayRef, ObjectRef, ViewRef, is_truthy

#: Tier-1 source text of each ``interp._NUMERIC_BINOPS`` operator: the emitter
#: writes these values, never the program's own operator string.
_OPERATOR_TEXT = {
    "+": "+",
    "-": "-",
    "*": "*",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
    "==": "==",
    "!=": "!=",
}


class FrameEmitter:
    """Tier 1: the Python source of one decoded callable, and its namespace.

    The source defines ``frame(regs, block=0)``: a ``while`` loop over an
    ``if``-tree on block numbers that runs the callable from ``block`` on
    the same register list tier 0 uses.  Each call-free segment is
    charged and checked against ``max_steps`` as in
    :meth:`Interpreter._run_frame`, and a segment that would cross it is
    stepped by :meth:`Interpreter._step_to_limit` over the tier-0
    closures.  Constants, moves, binary operators on numbers (and ``==``/
    ``!=`` against nil), ``min``/``max``/``sqrt`` on numbers, views,
    terminators, and the object and view paths of ``GetField`` (heap slot
    lookup and the cache's LRU update) are written inline; every other
    instruction, slow path and error path calls the instruction's tier-0
    closure, so errors, limits and every count stay those of tier 0.  A
    block entered from exactly one jump or branch is written in place at
    that edge; the others (block 0, back-edge targets, joins) are the
    ``if``-tree's leaves.

    No program text reaches the source: constants, field names, closures
    and step tables are bound in the namespace under generated names, and
    the only numbers formatted are ints checked with ``type(x) is int``.
    """

    #: Deepest branch nesting written in place; deeper successors become
    #: ``if``-tree leaves (Python caps indentation at 100 levels).
    MAX_DEPTH = 40

    def __init__(self, interpreter: Interpreter, code: _Code) -> None:
        self.code = code
        self.namespace: dict[str, object] = {
            "stats": interpreter.stats,
            "step": interpreter._step_to_limit,
            "truthy": is_truthy,
            "sqrt": math.sqrt,
            "NUMBER": (int, float),
            "ArrayRef": ArrayRef,
            "ObjectRef": ObjectRef,
            "ViewRef": ViewRef,
            "ReproRuntimeError": ReproRuntimeError,
        }
        self.limit = self.literal(interpreter._max_steps)
        # Labelled accesses (locality attribution) stay in their closures.
        self.inline_fields = interpreter._locality is None
        if self.inline_fields:
            heap, cache = interpreter.heap, interpreter.cache
            self.namespace.update(
                objects=heap._objects.get,
                arrays=heap._arrays.get,
                sets=cache._sets,
                cstats=cache.stats,
            )
            self.line_shift = self.integer(cache._line_shift)
            self.num_sets = self.integer(cache.num_sets)
            self.ways = self.integer(cache.associativity)
            self.views = interpreter._views
        self.entries = {0}
        self.predecessors: Counter = Counter()
        for _, kind, a, b, c in code.blocks:
            if kind is _JUMP or kind is _LOOP:
                self.predecessors[a] += 1
                if kind is _LOOP:
                    self.entries.add(a)  # where on-stack replacement enters
            elif kind is _BRANCH:
                self.predecessors[b] += 1
                self.predecessors[c] += 1

    # -- text ----------------------------------------------------------

    def bind(self, value: object) -> str:
        """A generated global name for ``value``."""
        name = f"k{len(self.namespace)}"
        self.namespace[name] = value
        return name

    @staticmethod
    def integer(value: object) -> str:
        if type(value) is not int:
            raise TypeError(f"tier 1 formats only ints, not {type(value).__name__}")
        return str(value)

    def literal(self, value: object) -> str:
        """``value`` as a keyword or int literal, else as a bound name
        (huge ints too: ``str`` of one is slow or refused)."""
        if value is None or value is True or value is False:
            return str(value)
        if type(value) is int and -(1 << 62) < value < 1 << 62:
            return str(value)
        return self.bind(value)

    @staticmethod
    def registers(*registers: object) -> bool:
        return all(type(register) is int for register in registers)

    # -- structure -----------------------------------------------------

    def emit(self) -> tuple[str, dict]:
        bodies: dict[int, list[str]] = {}
        pending = sorted(self.entries)
        while pending:
            index = pending.pop()
            if index not in bodies:
                bodies[index] = lines = []
                self._block(index, 0, lines, pending)
        out = ["def frame(regs, block=0):", " while True:"]
        self._tree(sorted(bodies), bodies, "  ", out)
        return "\n".join(out) + "\n", self.namespace

    def _tree(self, leaves: list[int], bodies: dict, indent: str, out: list[str]) -> None:
        if len(leaves) == 1:
            out.extend(indent + line for line in bodies[leaves[0]])
            return
        middle = len(leaves) // 2
        out.append(f"{indent}if block < {self.integer(leaves[middle])}:")
        self._tree(leaves[:middle], bodies, indent + " ", out)
        out.append(f"{indent}else:")
        self._tree(leaves[middle:], bodies, indent + " ", out)

    def _block(self, index: int, depth: int, out: list[str], pending: list[int]) -> None:
        """Block ``index`` at ``depth``, then each block it jumps to in
        place.  The steps of a last segment with nothing to run are
        charged with the next block's first segment: neither can fail,
        so counts, limits and errors are as if charged apart."""
        indent = " " * depth
        carried: tuple = ()
        while True:
            segments, kind, a, b, c = self.code.blocks[index]
            in_place = kind is _JUMP and self._in_place(a, depth)
            for position, (_count, ops, steps) in enumerate(segments):
                steps = carried + steps
                carried = ()
                if in_place and not ops and position == len(segments) - 1:
                    carried = steps
                    break
                out.append(
                    f"{indent}stats.instructions = n if (n := stats.instructions + "
                    f"{self.integer(len(steps))}) <= {self.limit} "
                    f"else step({self.bind(steps)}, regs)"
                )
                for _loc, op, instr in steps:
                    if op is not None:
                        self._instr(op, instr, indent, out)
            if not in_place:
                break
            index = a
        if kind is _JUMP or kind is _LOOP:
            self._dispatch(a, indent, out, pending)
        elif kind is _BRANCH:
            out.append(
                f"{indent}if (c := regs[{self.integer(a)}]) is True "
                "or (c is not False and truthy(c)):"
            )
            self._edge(b, depth + 1, out, pending)
            out.append(f"{indent}else:")
            self._edge(c, depth + 1, out, pending)
        elif kind is _RETURN:
            out.append(f"{indent}return {'None' if a is None else f'regs[{self.integer(a)}]'}")
        else:
            message = self.bind(f"{self.code.callable_.name}: fell off block B{a}")
            out.append(f"{indent}raise ReproRuntimeError({message})")

    def _in_place(self, target: int, depth: int) -> bool:
        """Whether a forward edge to ``target`` is its only way in, so its
        code goes right there instead of into the ``if``-tree."""
        return (
            target not in self.entries
            and self.predecessors[target] == 1
            and depth <= self.MAX_DEPTH
        )

    def _edge(self, target: int, depth: int, out: list[str], pending: list[int]) -> None:
        if self._in_place(target, depth):
            self._block(target, depth, out, pending)
        else:
            self._dispatch(target, " " * depth, out, pending)

    def _dispatch(self, target: int, indent: str, out: list[str], pending: list[int]) -> None:
        out.append(f"{indent}block = {self.integer(target)}")
        if target not in self.entries:
            self.entries.add(target)
            pending.append(target)

    # -- instructions --------------------------------------------------

    def _instr(self, op, instr: ir.Instr, indent: str, out: list[str]) -> None:
        kind = type(instr)
        if kind is ir.Const and self.registers(instr.dest):
            out.append(f"{indent}regs[{instr.dest}] = {self.literal(instr.value)}")
        elif kind is ir.Move and self.registers(instr.dest, instr.src):
            out.append(f"{indent}regs[{instr.dest}] = regs[{instr.src}]")
        elif kind is ir.BinOp and self.registers(instr.dest, instr.lhs, instr.rhs):
            self._binop(op, instr, indent, out)
        elif (
            kind is ir.MakeView
            and self.registers(instr.dest, instr.array, instr.index)
        ):
            out.append(f"{indent}a = regs[{instr.array}]")
            out.append(f"{indent}x = regs[{instr.index}]")
            out.append(
                f"{indent}if type(a) is ArrayRef and a.inline_layout is not None "
                "and type(x) is int and 0 <= x < a.length: "
                f"regs[{instr.dest}] = ViewRef(a, x, {self.bind(instr.class_name)})"
            )
            out.append(f"{indent}else: {self.bind(op)}(regs)")
        elif kind is ir.CallBuiltin and self._builtin(op, instr, indent, out):
            pass
        elif kind is ir.GetField and self.inline_fields and self.registers(instr.dest, instr.obj):
            self._getfield(op, instr, indent, out)
        else:
            out.append(f"{indent}{self.bind(op)}(regs)")

    def _binop(self, op, instr: ir.BinOp, indent: str, out: list[str]) -> None:
        """Numbers (and C-style ``/``/``%`` on ints) inline, ``==``/``!=``
        against nil too; other operands go through ``op``."""
        dest = f"regs[{instr.dest}]"
        left, right = f"l := regs[{instr.lhs}]", f"r := regs[{instr.rhs}]"
        text = _OPERATOR_TEXT.get(instr.op)
        if instr.op == "==" or instr.op == "!=":
            identity = "is" if instr.op == "==" else "is not"
            lines = [
                f"l = regs[{instr.lhs}]",
                f"r = regs[{instr.rhs}]",
                f"if type(l) in NUMBER and type(r) in NUMBER: {dest} = l {text} r",
                f"elif l is None or r is None: {dest} = l {identity} r",
            ]
        elif text is not None:
            lines = [f"if type({left}) in NUMBER and type({right}) in NUMBER: {dest} = l {text} r"]
        elif instr.op == "/":
            lines = [
                f"if type({left}) is int and type({right}) is int and r:",
                " q = abs(l) // abs(r)",
                f" {dest} = q if (l >= 0) == (r >= 0) else -q",
            ]
        elif instr.op == "%":
            lines = [
                f"if type({left}) is int and type({right}) is int and r:",
                " q = abs(l) % abs(r)",
                f" {dest} = q if l >= 0 else -q",
            ]
        else:
            out.append(f"{indent}{self.bind(op)}(regs)")
            return
        lines.append(f"else: {self.bind(op)}(regs)")
        out.extend(indent + line for line in lines)

    def _builtin(self, op, instr: ir.CallBuiltin, indent: str, out: list[str]) -> bool:
        name, args = instr.builtin_name, instr.args
        if not self.registers(instr.dest, *args):
            return False
        if name in ("min", "max") and len(args) == 2:
            test = f"type(x := regs[{args[0]}]) in NUMBER and type(y := regs[{args[1]}]) in NUMBER"
            call = f"{'min' if name == 'min' else 'max'}(x, y)"
        elif name == "sqrt" and len(args) == 1:
            test = f"type(x := regs[{args[0]}]) in NUMBER and x >= 0"
            call = "sqrt(x)"
        else:
            return False
        out.append(f"{indent}if {test}:")
        out.append(f"{indent} stats.builtin_calls += 1; regs[{instr.dest}] = {call}")
        out.append(f"{indent}else: {self.bind(op)}(regs)")
        return True

    def _getfield(self, op, instr: ir.GetField, indent: str, out: list[str]) -> None:
        """``Heap.read_field``/``read_inline_field`` and the read path of
        ``CacheSimulator.access``, inline.  Every case these skip (a
        non-object, a dangling reference, a missing field, a bad view
        index) raises in ``op``, which they call instead."""
        name = self.bind(instr.field_name)
        slot = self.integer(SLOT_SIZE)
        lines = [
            f"o = regs[{instr.obj}]",
            "if type(o) is ObjectRef and (h := objects(o.address)) is not None "
            f"and (i := h.slot_map.get({name})) is not None: "
            f"a = o.address + {self.integer(OBJECT_HEADER)} + i * {slot}",
        ]
        if self.views:
            lines += [
                "elif type(o) is ViewRef and (h := arrays((a := o.array).address)) is not None "
                f"and (f := h.field_map.get({name})) is not None "
                "and type(x := o.index) is int and 0 <= x < h.length:",
                " i = f * h.length + x if h.parallel else x * len(h.inline_fields) + f",
                f" a = a.address + {self.integer(ARRAY_HEADER)} + i * {slot}",
            ]
        lines += [
            "else: i = -1",
            f"if i < 0: {self.bind(op)}(regs)",
            "else:",
            f" stats.heap_reads += 1; regs[{instr.dest}] = h.slots[i]",
            f" z = a >> {self.line_shift}; w = sets[z % {self.num_sets}]; cstats.reads += 1",
            " if z in w:",
            "  if w[0] != z: w.remove(z); w.insert(0, z)",
            " else:",
            "  cstats.read_misses += 1; w.insert(0, z)",
            f"  if len(w) > {self.ways}: w.pop()",
        ]
        out.extend(indent + line for line in lines)
