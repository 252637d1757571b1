"""The VM: a pre-decoded interpreter for the CFG IR, with a compiled tier.

The interpreter doubles as the paper's performance substrate.  Every heap
access goes through the simulated :class:`~repro.runtime.heap.Heap` and the
:class:`~repro.runtime.cache.CacheSimulator`, and every executed
instruction updates :class:`~repro.runtime.costmodel.ExecutionStats`; the
cost model then turns these counters into a cycle estimate.

Both the uniform-model program and the object-inlined program run on this
same VM, so the relative performance between them is attributable entirely
to the transformation (fewer dereferences, fewer allocations, static
dispatch, better locality).
"""

from __future__ import annotations

import dataclasses
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass
from typing import NoReturn

from ..ir import model as ir
from ..lang.errors import SourceLocation
from ..obs.tracer import NULL_TRACER
from .builtins import BuiltinError, call_builtin
from .cache import CacheConfig, CacheSimulator
from .costmodel import CostModel, ExecutionStats
from .heap import Heap, HeapError
from .values import ArrayRef, ObjectRef, Value, ViewRef, format_value, is_truthy


class ReproRuntimeError(Exception):
    """A mini-ICC++ runtime error (type error, missing method, ...)."""

    def __init__(self, message: str, location: SourceLocation | None = None) -> None:
        if location is not None and location.line:
            super().__init__(f"{location}: {message}")
        else:
            super().__init__(message)
        self.raw_message = message
        self.location = location


class ResourceLimitError(ReproRuntimeError):
    """A run exceeded one of its resource budgets (steps, heap cells).

    The fuzzer and the compile service both need hang-proof execution:
    catching this (rather than the broad :class:`ReproRuntimeError`)
    distinguishes "the program was too big for its budget" from "the
    program is wrong".
    """


class StepLimitExceeded(ResourceLimitError):
    """Raised when execution exceeds the configured instruction budget."""


class HeapLimitExceeded(ResourceLimitError):
    """Raised when heap allocation exceeds the configured cell budget."""


@dataclass(slots=True)
class RunResult:
    """Everything observable about one program run."""

    output: list[str]
    stats: ExecutionStats
    heap: Heap
    globals: dict[str, Value]
    return_value: Value = None

    def cycles(self, model: CostModel | None = None) -> int:
        return self.stats.cycles(model)


#: Terminator kinds of a decoded block; ``_LOOP`` is a jump to the same or
#: an earlier block, a loop's back-edge.
_JUMP, _BRANCH, _RETURN, _FELL_OFF, _LOOP = range(5)

#: Heat — calls plus taken back-edge jumps — at which a callable is
#: compiled to one Python function (tier 1).  Below it the callable runs
#: on the decoded closures (tier 0): generating and compiling source costs
#: tens of microseconds per instruction, which only hot code pays back.
TIER_UP_HEAT = 300

#: Instructions that may run other code (a constructor or a callee); a
#: call-free segment ends at each.
_CALLS = (ir.New, ir.CallMethod, ir.CallStatic, ir.CallFunction)

#: Binary operators with a fast path when both operands are numbers; the
#: result is what ``Interpreter._binop`` computes for numbers.
_NUMERIC_BINOPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}

#: ``Interpreter._methods`` marker for a lookup not made yet (a stored
#: None means the class has no such method).
_UNRESOLVED = object()


def _gatherer(registers: tuple[int, ...]):
    """``regs -> [regs[r] for r in registers]``, specialised by arity."""
    if not registers:
        return lambda regs: []
    if len(registers) == 1:
        (only,) = registers
        return lambda regs: [regs[only]]
    get = operator.itemgetter(*registers)
    return lambda regs: list(get(regs))


@dataclass(slots=True)
class _Code:
    """An :class:`~repro.ir.model.IRCallable` decoded for execution.

    ``blocks[i]`` is ``(segments, kind, a, b, c)``: the block's call-free
    segments, then its terminator — ``_JUMP`` (or the back-edge ``_LOOP``)
    to block ``a``, ``_BRANCH`` on register ``a`` to ``b``/``c``,
    ``_RETURN`` of register ``a`` (or nil), or ``_FELL_OFF`` block ``a``
    without a terminator.  A segment is ``(count, ops, steps)``: ``ops``
    are closures over the register list, at most the last of which calls
    out, and its ``count`` instructions are charged together.  ``steps``
    lists ``(location, op or None, instruction)`` per instruction, for
    stepping the same closures at the step limit and for generating the
    tier-1 function; an instruction without an op of its own (a
    terminator, or a move its producer performs) is only counted.
    """

    callable_: ir.IRCallable
    num_formals: int
    #: Nil registers appended to the arguments to make the frame.
    padding: list[Value]
    blocks: list[tuple]
    #: Calls plus taken back-edges so far; tier 1 at ``TIER_UP_HEAT``.
    heat: int = 0
    #: The tier-1 function ``frame(regs, block=0)``, once compiled.
    frame: object = None


class Interpreter:
    """Executes an :class:`~repro.ir.model.IRProgram`.

    Each callable is decoded once per interpreter, on its first call,
    into per-block tuples of closures (see :class:`_Code`); register
    indices, constants, field names, locations and the heap/cache methods
    are bound into the closures at decode time.  A callable whose heat
    reaches ``TIER_UP_HEAT`` is compiled to one Python function (see
    :mod:`.tier1`), entered on its next call or, mid-loop, at the
    back-edge that crossed the threshold.
    """

    def __init__(
        self,
        program: ir.IRProgram,
        cache_config: CacheConfig | None = None,
        max_steps: int = 500_000_000,
        tracer=NULL_TRACER,
        attribute_locality: bool = False,
        locality_bucket_lines: int = 64,
        max_heap_cells: int | None = None,
    ) -> None:
        self.program = program
        self.heap = Heap()
        self.cache = CacheSimulator(cache_config)
        # Attribution is observation-only and off by default: when
        # ``_locality`` is None field and element accesses decode to the
        # unlabelled fast closures, and the simulated counters are
        # bit-identical either way (differentially tested in
        # tests/test_locality.py).
        self._locality = (
            self.cache.enable_attribution(locality_bucket_lines)
            if attribute_locality
            else None
        )
        self.stats = ExecutionStats(cache=self.cache.stats, locality=self._locality)
        self.globals: dict[str, Value] = {name: None for name in program.global_names}
        self.output: list[str] = []
        self._max_steps = max_steps
        self._max_heap_cells = max_heap_cells
        self._depth = 0
        # One program scan up front: frame push/pop bracketing in _call is
        # only armed when the escape stage actually produced frame-local
        # allocations, so untransformed programs pay nothing.
        self._frame_regions = False
        #: Whether the program makes views; tier 1 writes the view path of
        #: a field read only then (the closure handles any view anyway).
        self._views = False
        for callable_ in program.callables():
            for instr in callable_.instructions():
                kind = type(instr)
                if kind is ir.New and instr.frame_local:
                    self._frame_regions = True
                elif kind is ir.MakeView:
                    self._views = True
        # Per-run memos; the program does not change during a run.
        #: id(callable) -> decoded code (the code pins the callable).
        self._codes: dict[int, _Code] = {}
        #: (class, method) -> callable, or None when the class lacks it.
        self._methods: dict[tuple[str, str], ir.IRCallable | None] = {}
        #: class -> its field layout; one tuple per class, so the heap's
        #: per-layout slot dict is shared by all of its objects.
        self._layouts: dict[str, tuple[str, ...]] = {}
        # Consulted only at run()-end (never in the dispatch loop), so the
        # default no-op tracer adds zero per-instruction overhead.
        self.tracer = tracer

    # ------------------------------------------------------------------
    # Entry points.

    def run(self, entry: str = ir.IRProgram.ENTRY_FUNCTION) -> RunResult:
        """Run @global_init then ``entry`` (default ``main``)."""
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 100_000))
        try:
            init = self.program.functions.get(ir.IRProgram.GLOBAL_INIT)
            if init is not None:
                self._call(init, [])
            entry_fn = self.program.functions.get(entry)
            if entry_fn is None:
                raise ReproRuntimeError(f"missing entry function {entry!r}")
            if entry_fn.params:
                raise ReproRuntimeError(f"entry function {entry!r} must take no arguments")
            result = self._call(entry_fn, [])
        finally:
            sys.setrecursionlimit(old_limit)
            # Decoded closures hold bound methods of this interpreter; with
            # them dropped, refcounting frees the interpreter and the run's
            # heap as soon as the caller lets go, without waiting for the
            # cycle collector.
            self._codes.clear()
        if self.tracer.enabled:
            # Surface the VM's counters as trace data at run end.
            summary = self.stats.summary()
            self.tracer.event("run.stats", **summary)
            for key, value in summary.items():
                if isinstance(value, int):  # ratios stay event-only
                    self.tracer.count(f"run.{key}", value)
            if self._locality is not None:
                # Bounded breakdowns: top-K labels/buckets + truncation count.
                self.tracer.event("run.locality", **self._locality.label_summary())
                self.tracer.event("run.heatmap", **self._locality.heatmap_summary())
        return RunResult(
            output=self.output,
            stats=self.stats,
            heap=self.heap,
            globals=self.globals,
            return_value=result,
        )

    def call_function(self, name: str, args: list[Value]) -> Value:
        """Call a top-level function directly (used by tests)."""
        fn = self.program.functions.get(name)
        if fn is None:
            raise ReproRuntimeError(f"unknown function {name!r}")
        return self._call(fn, list(args))

    # ------------------------------------------------------------------
    # Core execution.

    def _call(self, callable_: ir.IRCallable, args: list[Value]) -> Value:
        code = self._codes.get(id(callable_))
        if code is None:
            code = self._decode(callable_)
        if len(args) != code.num_formals:
            raise ReproRuntimeError(
                f"{callable_.name} expects {code.num_formals} values, got {len(args)}"
            )
        frame = code.frame
        if frame is None:
            code.heat += 1
            if code.heat >= TIER_UP_HEAT:
                frame = self._tier_up(code)
        self._depth += 1
        if self._depth > self.stats.max_call_depth:
            self.stats.max_call_depth = self._depth
        regs = args + code.padding
        marker = self.heap.push_frame() if self._frame_regions else None
        try:
            return self._run_frame(code, regs) if frame is None else frame(regs)
        finally:
            if marker is not None:
                self.heap.pop_frame(marker)
            self._depth -= 1

    def _run_frame(self, code: _Code, regs: list[Value]) -> Value:
        stats = self.stats
        limit = self._max_steps
        blocks = code.blocks
        segments, kind, a, b, c = blocks[0]
        while True:
            for count, ops, steps in segments:
                executed = stats.instructions + count
                if executed > limit:
                    self._step_to_limit(steps, regs)
                stats.instructions = executed
                for op in ops:
                    op(regs)
            if kind is _BRANCH:
                cond = regs[a]
                if cond is True or (cond is not False and is_truthy(cond)):
                    segments, kind, a, b, c = blocks[b]
                else:
                    segments, kind, a, b, c = blocks[c]
            elif kind is _JUMP:
                segments, kind, a, b, c = blocks[a]
            elif kind is _LOOP:
                code.heat += 1
                if code.heat >= TIER_UP_HEAT:
                    # On-stack replacement: tier 1 shares the register
                    # list and the block numbers, so it picks the loop up
                    # at the back-edge's target.
                    return (code.frame or self._tier_up(code))(regs, a)
                segments, kind, a, b, c = blocks[a]
            elif kind is _RETURN:
                return None if a is None else regs[a]
            else:
                raise ReproRuntimeError(
                    f"{code.callable_.name}: fell off block B{a}"
                )

    def _step_to_limit(self, steps: tuple, regs: list[Value]) -> NoReturn:
        """Run a segment that crosses the step budget one instruction at a
        time: the instructions before the crossing one execute, and
        :class:`StepLimitExceeded` names the crossing instruction.  Only
        the last op may call out, and it is counted before it runs, so the
        limit is always reached inside the segment.  (A move that its
        producer performs may land a register write early; the run stops
        right there, so nothing observes it.)"""
        stats = self.stats
        for loc, op, _ in steps:
            stats.instructions += 1
            if stats.instructions > self._max_steps:
                raise StepLimitExceeded(f"exceeded {self._max_steps} instructions", loc)
            if op is not None:
                op(regs)
        raise AssertionError("segment ended below the step limit")

    def _tier_up(self, code: _Code):
        """Compile ``code`` to its tier-1 function (see :mod:`.tier1`)."""
        # Imported on first use: tier1 imports this module, and a run
        # without a hot callable never loads it.
        from .tier1 import FrameEmitter

        source, namespace = FrameEmitter(self, code).emit()
        exec(compile(source, f"<vm {code.callable_.name}>", "exec"), namespace)
        # Popped, so the namespace (the function's globals) does not hold
        # the function: no reference cycle outlives the run's _codes.
        code.frame = namespace.pop("frame")
        return code.frame

    # ------------------------------------------------------------------
    # Decoding.

    def _decode(self, callable_: ir.IRCallable) -> _Code:
        reads = Counter(
            register for instr in callable_.instructions() for register in instr.sources()
        )
        formals = callable_.num_formals
        code = _Code(
            callable_=callable_,
            num_formals=formals,
            padding=[None] * (callable_.num_regs - formals),
            blocks=[
                self._decode_block(index, block, reads)
                for index, block in enumerate(callable_.blocks)
            ],
        )
        self._codes[id(callable_)] = code
        return code

    def _decode_block(self, index: int, block: ir.Block, reads: Counter) -> tuple:
        segments: list[tuple] = []
        ops: list = []
        steps: list[tuple] = []
        terminator: tuple = (_FELL_OFF, index, None, None)
        instrs = block.instrs
        elided = -1
        for position, instr in enumerate(instrs):
            kind = type(instr)
            if kind is ir.Jump or kind is ir.Branch or kind is ir.Return:
                steps.append((instr.loc, None, instr))
                if kind is ir.Jump:
                    jump = _LOOP if instr.target <= index else _JUMP
                    terminator = (jump, instr.target, None, None)
                elif kind is ir.Branch:
                    terminator = (_BRANCH, instr.cond, instr.then_target, instr.else_target)
                else:
                    terminator = (_RETURN, instr.src, None, None)
                break
            if position == elided:
                steps.append((instr.loc, None, instr))
                continue
            decoder = self._DECODERS.get(kind)
            if decoder is None:
                op = self._unhandled(instr)
            else:
                # ``rX = ...; rY = rX`` with rX read nowhere else: the
                # producer writes rY itself and the move is only counted.
                following = instrs[position + 1] if position + 1 < len(instrs) else None
                dest = instr.dst
                if (
                    type(following) is ir.Move
                    and dest is not None
                    and following.src == dest
                    and reads[dest] == 1
                ):
                    instr = dataclasses.replace(instr, dest=following.dest)
                    elided = position + 1
                op = decoder(self, instr)
            ops.append(op)
            steps.append((instr.loc, op, instr))
            if kind in _CALLS:
                segments.append((len(steps), tuple(ops), tuple(steps)))
                ops, steps = [], []
        if steps:
            segments.append((len(steps), tuple(ops), tuple(steps)))
        return (tuple(segments), *terminator)

    @staticmethod
    def _unhandled(instr: ir.Instr):
        message = f"unhandled instruction {type(instr).__name__}"
        loc = instr.loc

        def unhandled(regs):
            raise ReproRuntimeError(message, loc)

        return unhandled

    def _decode_const(self, instr: ir.Const):
        dest, value = instr.dest, instr.value

        def const(regs):
            regs[dest] = value

        return const

    def _decode_move(self, instr: ir.Move):
        dest, src = instr.dest, instr.src

        def move(regs):
            regs[dest] = regs[src]

        return move

    def _decode_binop(self, instr: ir.BinOp):
        dest, lhs, rhs, op, loc = instr.dest, instr.lhs, instr.rhs, instr.op, instr.loc
        binop = self._binop
        numeric = _NUMERIC_BINOPS.get(op)
        if numeric is None:

            def checked(regs):
                regs[dest] = binop(op, regs[lhs], regs[rhs], loc)

            return checked

        def arithmetic(regs):
            left = regs[lhs]
            right = regs[rhs]
            if (type(left) is int or type(left) is float) and (
                type(right) is int or type(right) is float
            ):
                regs[dest] = numeric(left, right)
            else:
                regs[dest] = binop(op, left, right, loc)

        return arithmetic

    def _decode_unop(self, instr: ir.UnOp):
        dest, src, op, loc = instr.dest, instr.src, instr.op, instr.loc
        if op == "!":

            def negate(regs):
                regs[dest] = not is_truthy(regs[src])

            return negate
        unop = self._unop

        def checked(regs):
            regs[dest] = unop(op, regs[src], loc)

        return checked

    def _decode_getfield(self, instr: ir.GetField):
        dest, obj_reg, name, loc = instr.dest, instr.obj, instr.field_name, instr.loc
        get_field = self._get_field
        if self._locality is not None:

            def labelled(regs):
                regs[dest] = get_field(regs[obj_reg], name, loc)

            return labelled
        stats = self.stats
        read_field = self.heap.read_field
        read_inline_field = self.heap.read_inline_field
        access = self.cache.access

        def getfield(regs):
            obj = regs[obj_reg]
            kind = type(obj)
            if kind is not ObjectRef and kind is not ViewRef:
                regs[dest] = get_field(obj, name, loc)  # the checked path
                return
            stats.heap_reads += 1
            try:
                if kind is ObjectRef:
                    value, address = read_field(obj, name)
                else:
                    value, address = read_inline_field(obj.array, obj.index, name)
            except HeapError as exc:
                raise ReproRuntimeError(str(exc), loc) from exc
            access(address, False)
            regs[dest] = value

        return getfield

    def _decode_setfield(self, instr: ir.SetField):
        obj, name, src, loc = instr.obj, instr.field_name, instr.src, instr.loc
        set_field = self._set_field

        def setfield(regs):
            set_field(regs[obj], name, regs[src], loc)

        return setfield

    def _decode_getfieldindexed(self, instr: ir.GetFieldIndexed):
        dest, obj, index, loc = instr.dest, instr.obj, instr.index, instr.loc
        base, length = instr.base_field, instr.length
        get_field_indexed = self._get_field_indexed

        def getfieldindexed(regs):
            regs[dest] = get_field_indexed(regs[obj], base, length, regs[index], loc)

        return getfieldindexed

    def _decode_setfieldindexed(self, instr: ir.SetFieldIndexed):
        obj, index, src, loc = instr.obj, instr.index, instr.src, instr.loc
        base, length = instr.base_field, instr.length
        set_field_indexed = self._set_field_indexed

        def setfieldindexed(regs):
            set_field_indexed(regs[obj], base, length, regs[index], regs[src], loc)

        return setfieldindexed

    def _decode_getindex(self, instr: ir.GetIndex):
        dest, array, index, loc = instr.dest, instr.array, instr.index, instr.loc
        get_index = self._get_index

        def getindex(regs):
            regs[dest] = get_index(regs[array], regs[index], loc)

        return getindex

    def _decode_setindex(self, instr: ir.SetIndex):
        array, index, src, loc = instr.array, instr.index, instr.src, instr.loc
        set_index = self._set_index

        def setindex(regs):
            set_index(regs[array], regs[index], regs[src], loc)

        return setindex

    def _decode_arraylen(self, instr: ir.ArrayLen):
        dest, array_reg, loc = instr.dest, instr.array, instr.loc

        def arraylen(regs):
            array = regs[array_reg]
            if not isinstance(array, ArrayRef):
                raise ReproRuntimeError(
                    f"len() of non-array {format_value(array)}", loc
                )
            regs[dest] = array.length

        return arraylen

    def _decode_new(self, instr: ir.New):
        dest, class_name, loc = instr.dest, instr.class_name, instr.loc
        flags = (instr.on_stack, instr.skip_init, instr.frame_local)
        gather = _gatherer(instr.args)
        new_object = self._new_object

        def new(regs):
            regs[dest] = new_object(class_name, gather(regs), loc, *flags)

        return new

    def _decode_newarray(self, instr: ir.NewArray):
        dest, size, loc = instr.dest, instr.size, instr.loc
        layout, parallel, elem_class = (
            instr.inline_layout, instr.parallel_layout, instr.elem_class
        )
        new_array = self._new_array

        def newarray(regs):
            regs[dest] = new_array(regs[size], layout, parallel, loc, elem_class)

        return newarray

    def _decode_makeview(self, instr: ir.MakeView):
        dest, array_reg, index_reg = instr.dest, instr.array, instr.index
        class_name, loc = instr.class_name, instr.loc

        def makeview(regs):
            array = regs[array_reg]
            index = regs[index_reg]
            if not isinstance(array, ArrayRef) or array.inline_layout is None:
                raise ReproRuntimeError(
                    f"view into non-inline array {format_value(array)}", loc
                )
            if isinstance(index, bool) or not isinstance(index, int):
                raise ReproRuntimeError("view index must be an int", loc)
            if not (0 <= index < array.length):
                raise ReproRuntimeError(
                    f"view index {index} out of range [0, {array.length})", loc
                )
            regs[dest] = ViewRef(array, index, class_name)

        return makeview

    def _decode_callmethod(self, instr: ir.CallMethod):
        dest, name, loc = instr.dest, instr.method_name, instr.loc
        gather = _gatherer((instr.recv, *instr.args))
        stats = self.stats
        resolve = self._resolve
        receiver_class = self._receiver_class
        call = self._call

        def callmethod(regs):
            args = gather(regs)
            class_name = receiver_class(args[0], loc)
            method = resolve(class_name, name)
            if method is None:
                raise ReproRuntimeError(
                    f"class {class_name!r} does not understand {name!r}", loc
                )
            stats.dynamic_dispatches += 1
            regs[dest] = call(method, args)

        return callmethod

    def _decode_callstatic(self, instr: ir.CallStatic):
        dest, class_name, name, loc = (
            instr.dest, instr.class_name, instr.method_name, instr.loc
        )
        gather = _gatherer((instr.recv, *instr.args))
        stats = self.stats
        resolve = self._resolve
        call = self._call

        def callstatic(regs):
            args = gather(regs)
            method = resolve(class_name, name)
            if method is None:
                raise ReproRuntimeError(f"no method {class_name}::{name}", loc)
            stats.static_calls += 1
            regs[dest] = call(method, args)

        return callstatic

    def _decode_callfunction(self, instr: ir.CallFunction):
        dest, name, loc = instr.dest, instr.func_name, instr.loc
        gather = _gatherer(instr.args)
        stats = self.stats
        functions = self.program.functions
        call = self._call

        def callfunction(regs):
            fn = functions.get(name)
            if fn is None:
                raise ReproRuntimeError(f"unknown function {name!r}", loc)
            stats.static_calls += 1
            regs[dest] = call(fn, gather(regs))

        return callfunction

    def _decode_callbuiltin(self, instr: ir.CallBuiltin):
        dest, name, arg_regs, loc = instr.dest, instr.builtin_name, instr.args, instr.loc
        stats = self.stats
        output = self.output

        def checked(args: list[Value]) -> Value:
            try:
                return call_builtin(name, args, output)
            except BuiltinError as exc:
                raise ReproRuntimeError(str(exc), loc) from exc

        # The hot numeric builtins compute inline on numbers; anything
        # else (and every error) goes through call_builtin.
        if name in ("min", "max") and len(arg_regs) == 2:
            pick = min if name == "min" else max
            first, second = arg_regs

            def minmax(regs):
                stats.builtin_calls += 1
                x = regs[first]
                y = regs[second]
                if (type(x) is int or type(x) is float) and (
                    type(y) is int or type(y) is float
                ):
                    regs[dest] = pick(x, y)
                else:
                    regs[dest] = checked([x, y])

            return minmax
        if name == "sqrt" and len(arg_regs) == 1:
            (only,) = arg_regs

            def sqrt(regs):
                stats.builtin_calls += 1
                x = regs[only]
                if (type(x) is int or type(x) is float) and x >= 0:
                    regs[dest] = math.sqrt(x)
                else:
                    regs[dest] = checked([x])

            return sqrt
        gather = _gatherer(arg_regs)

        def callbuiltin(regs):
            stats.builtin_calls += 1
            regs[dest] = checked(gather(regs))

        return callbuiltin

    def _decode_getglobal(self, instr: ir.GetGlobal):
        dest, name = instr.dest, instr.name
        globals_ = self.globals

        def getglobal(regs):
            regs[dest] = globals_[name]

        return getglobal

    def _decode_setglobal(self, instr: ir.SetGlobal):
        name, src = instr.name, instr.src
        globals_ = self.globals

        def setglobal(regs):
            globals_[name] = regs[src]

        return setglobal

    _DECODERS = {
        ir.Const: _decode_const,
        ir.Move: _decode_move,
        ir.BinOp: _decode_binop,
        ir.UnOp: _decode_unop,
        ir.GetField: _decode_getfield,
        ir.SetField: _decode_setfield,
        ir.GetFieldIndexed: _decode_getfieldindexed,
        ir.SetFieldIndexed: _decode_setfieldindexed,
        ir.GetIndex: _decode_getindex,
        ir.SetIndex: _decode_setindex,
        ir.ArrayLen: _decode_arraylen,
        ir.New: _decode_new,
        ir.NewArray: _decode_newarray,
        ir.MakeView: _decode_makeview,
        ir.CallMethod: _decode_callmethod,
        ir.CallStatic: _decode_callstatic,
        ir.CallFunction: _decode_callfunction,
        ir.CallBuiltin: _decode_callbuiltin,
        ir.GetGlobal: _decode_getglobal,
        ir.SetGlobal: _decode_setglobal,
    }

    # ------------------------------------------------------------------
    # Dispatch.

    def _receiver_class(self, recv: Value, loc: SourceLocation) -> str:
        if isinstance(recv, (ObjectRef, ViewRef)):
            return recv.class_name
        raise ReproRuntimeError(
            f"message send to non-object {format_value(recv)}", loc
        )

    def _resolve(self, class_name: str, method_name: str) -> ir.IRCallable | None:
        """``program.resolve_method``'s callable, memoised for the run."""
        key = (class_name, method_name)
        method = self._methods.get(key, _UNRESOLVED)
        if method is _UNRESOLVED:
            resolved = self.program.resolve_method(class_name, method_name)
            method = self._methods[key] = None if resolved is None else resolved[1]
        return method

    def _layout(self, class_name: str) -> tuple[str, ...]:
        """``program.layout`` as a tuple, memoised (and so shared) per class."""
        layout = self._layouts.get(class_name)
        if layout is None:
            layout = self._layouts[class_name] = tuple(self.program.layout(class_name))
        return layout

    # ------------------------------------------------------------------
    # Heap operations.

    def _check_heap_budget(self, loc: SourceLocation | None) -> None:
        if (
            self._max_heap_cells is not None
            and self.stats.allocated_slots > self._max_heap_cells
        ):
            raise HeapLimitExceeded(
                f"exceeded {self._max_heap_cells} heap cells", loc
            )

    @staticmethod
    def _site(loc: SourceLocation | None) -> str:
        """Attribution label for an allocation site (``file:line``)."""
        if loc is None or not loc.line:
            return "<synthetic>"
        return f"{loc.filename}:{loc.line}"

    def _new_object(
        self,
        class_name: str,
        args: list[Value],
        loc: SourceLocation,
        on_stack: bool = False,
        skip_init: bool = False,
        frame_local: bool = False,
    ) -> Value:
        if class_name not in self.program.classes:
            raise ReproRuntimeError(f"unknown class {class_name!r}", loc)
        layout = self._layout(class_name)
        site = self._site(loc) if self._locality is not None else None
        ref = self.heap.alloc_object(
            class_name, layout, on_stack, alloc_site=site, frame_local=frame_local
        )
        if frame_local:
            # Proven non-escaping by the escape analysis: carved out of the
            # frame region, reclaimed at return.  The frame lines are
            # simulated (unlike the legacy stack region) so the heatmap can
            # show the same bytes being reused frame after frame.
            self.stats.frame_allocations += 1
            if self._locality is None:
                self.cache.touch_range(ref.address, 8 + len(layout) * 8, is_write=True)
            else:
                self.cache.touch_range(
                    ref.address,
                    8 + len(layout) * 8,
                    is_write=True,
                    label=("frame-alloc", class_name, None, site),
                )
        elif on_stack:
            # Proven non-escaping by assignment specialization: charged as a
            # stack allocation; the (hot) stack lines are not simulated.
            self.stats.stack_allocations += 1
        else:
            self.stats.allocations += 1
            self.stats.allocated_slots += len(layout) + 1  # +1 for the header
            self.stats.allocated_bytes += 8 + len(layout) * 8
            self._check_heap_budget(loc)
            if self._locality is None:
                self.cache.touch_range(ref.address, 8 + len(layout) * 8, is_write=True)
            else:
                self.cache.touch_range(
                    ref.address,
                    8 + len(layout) * 8,
                    is_write=True,
                    label=("alloc", class_name, None, site),
                )

        if skip_init:
            return ref
        init = self._resolve(class_name, "init")
        if init is None:
            if args:
                raise ReproRuntimeError(
                    f"class {class_name!r} has no init but got constructor args", loc
                )
            return ref
        self.stats.static_calls += 1  # constructor calls are statically bound
        self._call(init, [ref, *args])
        return ref

    def _new_array(
        self,
        size: Value,
        inline_layout: str | None,
        parallel: bool,
        loc: SourceLocation,
        elem_class: str | None = None,
    ) -> Value:
        if isinstance(size, bool) or not isinstance(size, int):
            raise ReproRuntimeError(f"array size must be an int, got {format_value(size)}", loc)
        if size < 0:
            raise ReproRuntimeError(f"negative array size {size}", loc)
        inline_fields: tuple[str, ...] = ()
        if inline_layout is not None:
            if inline_layout not in self.program.classes:
                raise ReproRuntimeError(f"unknown inline class {inline_layout!r}", loc)
            inline_fields = self._layout(inline_layout)
        site = self._site(loc) if self._locality is not None else None
        ref = self.heap.alloc_array(
            size,
            inline_layout,
            inline_fields,
            parallel,
            alloc_site=site,
            elem_class=elem_class,
        )
        slots = size * (len(inline_fields) if inline_layout else 1)
        self.stats.allocations += 1
        self.stats.allocated_slots += slots + 2  # +2 for the array header
        self.stats.allocated_bytes += 16 + slots * 8
        self._check_heap_budget(loc)
        if self._locality is None:
            self.cache.touch_range(ref.address, 16 + slots * 8, is_write=True)
        else:
            # Prefer the concrete element class where one is known: the
            # inline layout class, else the analysis-declared element
            # class, else the generic <array>.
            known = inline_layout or elem_class
            class_label = f"{known}[]" if known else "<array>"
            self.cache.touch_range(
                ref.address,
                16 + slots * 8,
                is_write=True,
                label=("alloc", class_label, None, site),
            )
        return ref

    def _get_field(self, obj: Value, field_name: str, loc: SourceLocation) -> Value:
        self.stats.heap_reads += 1
        try:
            if isinstance(obj, ObjectRef):
                value, address = self.heap.read_field(obj, field_name)
                kind = "field"
            elif isinstance(obj, ViewRef):
                value, address = self.heap.read_inline_field(
                    obj.array, obj.index, field_name
                )
                kind = "inline_field"
            else:
                raise ReproRuntimeError(
                    f"field access .{field_name} on non-object {format_value(obj)}", loc
                )
        except HeapError as exc:
            raise ReproRuntimeError(str(exc), loc) from exc
        if self._locality is None:
            self.cache.access(address, is_write=False)
        else:
            self.cache.access(
                address,
                False,
                (kind, obj.class_name, field_name, self.heap.site_of(obj)),
            )
        return value

    def _set_field(
        self, obj: Value, field_name: str, value: Value, loc: SourceLocation
    ) -> None:
        self.stats.heap_writes += 1
        try:
            if isinstance(obj, ObjectRef):
                address = self.heap.write_field(obj, field_name, value)
                kind = "field"
            elif isinstance(obj, ViewRef):
                address = self.heap.write_inline_field(
                    obj.array, obj.index, field_name, value
                )
                kind = "inline_field"
            else:
                raise ReproRuntimeError(
                    f"field store .{field_name} on non-object {format_value(obj)}", loc
                )
        except HeapError as exc:
            raise ReproRuntimeError(str(exc), loc) from exc
        if self._locality is None:
            self.cache.access(address, is_write=True)
        else:
            self.cache.access(
                address,
                True,
                (kind, obj.class_name, field_name, self.heap.site_of(obj)),
            )

    def _get_field_indexed(
        self, obj: Value, base_field: str, length: int, index: Value, loc: SourceLocation
    ) -> Value:
        if not isinstance(obj, ObjectRef):
            raise ReproRuntimeError(
                f"indexed field access on non-object {format_value(obj)}", loc
            )
        self.stats.heap_reads += 1
        try:
            value, address = self.heap.read_field_indexed(obj, base_field, length, index)
        except HeapError as exc:
            raise ReproRuntimeError(str(exc), loc) from exc
        if self._locality is None:
            self.cache.access(address, is_write=False)
        else:
            self.cache.access(
                address,
                False,
                ("field", obj.class_name, base_field, self.heap.site_of(obj)),
            )
        return value

    def _set_field_indexed(
        self,
        obj: Value,
        base_field: str,
        length: int,
        index: Value,
        value: Value,
        loc: SourceLocation,
    ) -> None:
        if not isinstance(obj, ObjectRef):
            raise ReproRuntimeError(
                f"indexed field store on non-object {format_value(obj)}", loc
            )
        self.stats.heap_writes += 1
        try:
            address = self.heap.write_field_indexed(obj, base_field, length, index, value)
        except HeapError as exc:
            raise ReproRuntimeError(str(exc), loc) from exc
        if self._locality is None:
            self.cache.access(address, is_write=True)
        else:
            self.cache.access(
                address,
                True,
                ("field", obj.class_name, base_field, self.heap.site_of(obj)),
            )

    def _array_class(self, array: ArrayRef) -> str:
        """Locality class of an array's elements: the declared element
        class where the analysis proved one, else the generic ``<array>``."""
        return self.heap.elem_class_of(array) or "<array>"

    def _get_index(self, array: Value, index: Value, loc: SourceLocation) -> Value:
        if not isinstance(array, ArrayRef):
            raise ReproRuntimeError(f"indexing non-array {format_value(array)}", loc)
        self.stats.heap_reads += 1
        try:
            value, address = self.heap.read_element(array, index)
        except HeapError as exc:
            raise ReproRuntimeError(str(exc), loc) from exc
        if self._locality is None:
            self.cache.access(address, is_write=False)
        else:
            self.cache.access(
                address, False, ("element", self._array_class(array), None,
                                 self.heap.site_of(array))
            )
        return value

    def _set_index(
        self, array: Value, index: Value, value: Value, loc: SourceLocation
    ) -> None:
        if not isinstance(array, ArrayRef):
            raise ReproRuntimeError(f"indexing non-array {format_value(array)}", loc)
        self.stats.heap_writes += 1
        try:
            address = self.heap.write_element(array, index, value)
        except HeapError as exc:
            raise ReproRuntimeError(str(exc), loc) from exc
        if self._locality is None:
            self.cache.access(address, is_write=True)
        else:
            self.cache.access(
                address, True, ("element", self._array_class(array), None,
                                self.heap.site_of(array))
            )

    # ------------------------------------------------------------------
    # Operators.

    @staticmethod
    def _is_number(value: Value) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    def _binop(self, op: str, lhs: Value, rhs: Value, loc: SourceLocation) -> Value:
        if op == "==":
            return self._equal(lhs, rhs)
        if op == "!=":
            return not self._equal(lhs, rhs)

        both_numbers = self._is_number(lhs) and self._is_number(rhs)
        if op == "+":
            if isinstance(lhs, str) and isinstance(rhs, str):
                return lhs + rhs
            if both_numbers:
                return lhs + rhs
        elif op == "-" and both_numbers:
            return lhs - rhs
        elif op == "*" and both_numbers:
            return lhs * rhs
        elif op == "/" and both_numbers:
            if rhs == 0:
                raise ReproRuntimeError("division by zero", loc)
            if isinstance(lhs, int) and isinstance(rhs, int):
                # C-style truncating integer division.
                quotient = abs(lhs) // abs(rhs)
                return quotient if (lhs >= 0) == (rhs >= 0) else -quotient
            return lhs / rhs
        elif op == "%" and both_numbers:
            if rhs == 0:
                raise ReproRuntimeError("modulo by zero", loc)
            if isinstance(lhs, int) and isinstance(rhs, int):
                # C-style: remainder takes the dividend's sign.
                remainder = abs(lhs) % abs(rhs)
                return remainder if lhs >= 0 else -remainder
            return math.fmod(lhs, rhs)
        elif op in ("<", "<=", ">", ">="):
            if both_numbers or (isinstance(lhs, str) and isinstance(rhs, str)):
                if op == "<":
                    return lhs < rhs
                if op == "<=":
                    return lhs <= rhs
                if op == ">":
                    return lhs > rhs
                return lhs >= rhs
        raise ReproRuntimeError(
            f"invalid operands for {op!r}: {format_value(lhs)}, {format_value(rhs)}", loc
        )

    @staticmethod
    def _equal(lhs: Value, rhs: Value) -> bool:
        if lhs is None or rhs is None:
            return lhs is None and rhs is None
        if isinstance(lhs, bool) or isinstance(rhs, bool):
            return isinstance(lhs, bool) and isinstance(rhs, bool) and lhs == rhs
        if isinstance(lhs, (int, float)) and isinstance(rhs, (int, float)):
            return lhs == rhs
        if isinstance(lhs, str) and isinstance(rhs, str):
            return lhs == rhs
        # Reference identity for objects/arrays/views (frozen dataclass
        # equality compares address/index/class, which is identity here).
        if type(lhs) is type(rhs):
            return lhs == rhs
        return False

    def _unop(self, op: str, operand: Value, loc: SourceLocation) -> Value:
        if op == "-":
            if self._is_number(operand):
                return -operand
            raise ReproRuntimeError(
                f"unary '-' on non-number {format_value(operand)}", loc
            )
        if op == "!":
            return not is_truthy(operand)
        raise ReproRuntimeError(f"unknown unary operator {op!r}", loc)


def run_program(
    program: ir.IRProgram,
    cache_config: CacheConfig | None = None,
    max_steps: int = 500_000_000,
    tracer=NULL_TRACER,
    attribute_locality: bool = False,
    locality_bucket_lines: int = 64,
    max_heap_cells: int | None = None,
) -> RunResult:
    """Convenience wrapper: interpret ``program`` from ``main``.

    ``tracer`` receives a ``run`` span plus the VM statistics as a
    ``run.stats`` event and ``run.*`` counters when the run completes.
    With ``attribute_locality=True`` every heap access is additionally
    attributed to a ``(kind, class, field, alloc_site)`` label and an
    address bucket, surfaced as ``run.locality`` / ``run.heatmap`` events
    and on ``RunResult.stats.locality``.
    """
    interpreter = Interpreter(
        program,
        cache_config,
        max_steps,
        tracer,
        attribute_locality=attribute_locality,
        locality_bucket_lines=locality_bucket_lines,
        max_heap_cells=max_heap_cells,
    )
    with tracer.span("run"):
        return interpreter.run()
