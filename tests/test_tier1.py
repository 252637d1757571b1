"""The VM's second tier: hot callables compiled to Python functions.

Tier 1 must be invisible: same output, same counters, same errors as the
decoded closures (``test_vm_golden.py`` checks the recorded contract
under every forced tier).  These tests pin what is particular to it:
entry mid-loop by on-stack replacement, the rule that no program text
reaches the generated source, and the cache state it shares with tier 0.
"""

import dataclasses

import pytest

from conftest import FORCED_TIERS
from repro.ir import compile_source
from repro.ir import model as ir
from repro.runtime import Interpreter, ReproRuntimeError, interp, tier1

LOOP = """class P { var f; def init(v) { this.f = v; } }
def main() {
  var p = new P(2);
  var total = 0;
  var i = 0;
  while (i < 50) {
    total = total + p.f * i;
    i = i + 1;
  }
  print(total);
}
"""


@pytest.fixture
def entries(monkeypatch):
    """``(callable, block)`` of every entry into a tier-1 function."""
    entered = []
    tier_up = Interpreter._tier_up

    def spying_tier_up(self, code):
        frame = tier_up(self, code)

        def entry(regs, block=0):
            entered.append((code.callable_.name, block))
            return frame(regs, block)

        code.frame = entry
        return entry

    monkeypatch.setattr(Interpreter, "_tier_up", spying_tier_up)
    return entered


def _run(program, heat, monkeypatch):
    monkeypatch.setattr(interp, "TIER_UP_HEAT", heat)
    result = Interpreter(program).run()
    return result.output, result.stats.summary()


def test_hot_loop_enters_tier1_mid_loop(entries, monkeypatch):
    program = compile_source(LOOP, "loop.icc")
    expected = _run(program, FORCED_TIERS["tier1-never"], monkeypatch)
    assert entries == []
    assert _run(program, FORCED_TIERS["tier1-osr"], monkeypatch) == expected
    # main is called once, so only its loop's back-edge can tier it up:
    # it continues at the loop header, not at block 0.
    ((name, block),) = entries
    assert name == "main" and block > 0
    assert expected[0] == ["2450"]


def test_calls_tier_up_at_the_threshold(entries, monkeypatch):
    source = "def sq(x) { return x * x; }\ndef main() { print(sq(1) + sq(2) + sq(3)); }\n"
    program = compile_source(source)
    assert _run(program, 2, monkeypatch)[0] == ["14"]
    # The second call compiles sq and enters it; the third reuses it.
    assert entries == [("sq", 0), ("sq", 0)]


def test_step_limit_inside_a_compiled_loop(monkeypatch):
    program = compile_source(LOOP, "loop.icc")
    outcomes = []
    for heat in (FORCED_TIERS["tier1-never"], FORCED_TIERS["tier1-osr"]):
        monkeypatch.setattr(interp, "TIER_UP_HEAT", heat)
        interpreter = Interpreter(program, max_steps=200)
        with pytest.raises(ReproRuntimeError) as info:
            interpreter.run()
        outcomes.append((str(info.value), interpreter.stats.instructions))
    assert outcomes[0] == outcomes[1]


def test_generated_function_is_named_after_its_callable(tier1_immediately):
    source = 'def main() {\n  var a = 1;\n  print(a + "x");\n}\n'
    with pytest.raises(ReproRuntimeError) as info:
        Interpreter(compile_source(source, "err.icc")).run()
    assert str(info.value) == "err.icc:3:11: invalid operands for '+': 1, x"
    filenames = []
    traceback = info.value.__traceback__
    while traceback is not None:
        filenames.append(traceback.tb_frame.f_code.co_filename)
        traceback = traceback.tb_next
    assert "<vm main>" in filenames


#: Strings a hostile program could carry; none may reach generated source.
HOSTILE_CONST = "a'b\"c\n\"\"\"\n__import__('os').system('exit 3')\n#"
HOSTILE_FIELD = "f']\n__import__('os')\nx = ('"
HOSTILE_FUNCTION = "g\"); __import__('os'); ('"
HOSTILE_FILE = "evil'\n.icc"

HOSTILE_SOURCE = """class P { var f; def init(v) { this.f = v; } }
def g(p) { return p.f; }
def main() {
  var p = new P("MARKER");
  var s = nil;
  var i = 0;
  while (i < 3) { s = g(p); i = i + 1; }
  print(s);
  print(p.f);
}
"""


def _hostile_program() -> ir.IRProgram:
    """``HOSTILE_SOURCE`` with its string, field and function renamed to
    hostile text (the parser would reject such names, so the IR is
    rewritten after lowering)."""
    program = compile_source(HOSTILE_SOURCE, HOSTILE_FILE)

    def rewrite(instr):
        if type(instr) is ir.Const and instr.value == "MARKER":
            return dataclasses.replace(instr, value=HOSTILE_CONST)
        if type(instr) in (ir.GetField, ir.SetField) and instr.field_name == "f":
            return dataclasses.replace(instr, field_name=HOSTILE_FIELD)
        if type(instr) is ir.CallFunction and instr.func_name == "g":
            return dataclasses.replace(instr, func_name=HOSTILE_FUNCTION)
        return instr

    for callable_ in program.callables():
        for block in callable_.blocks:
            block.instrs = [rewrite(instr) for instr in block.instrs]
    program.classes["P"].fields = [HOSTILE_FIELD]
    function = program.functions.pop("g")
    function.name = HOSTILE_FUNCTION
    program.functions[HOSTILE_FUNCTION] = function
    return program


def test_no_program_text_in_generated_source(tier1_immediately, monkeypatch):
    sources = []
    emit = tier1.FrameEmitter.emit

    def recording_emit(self):
        source, namespace = emit(self)
        sources.append(source)
        return source, namespace

    monkeypatch.setattr(tier1.FrameEmitter, "emit", recording_emit)
    result = Interpreter(_hostile_program()).run()
    assert result.output == [HOSTILE_CONST, HOSTILE_CONST]
    assert len(sources) == 4  # @global_init, main, g, P::init
    for source in sources:
        for text in (HOSTILE_CONST, HOSTILE_FIELD, HOSTILE_FUNCTION, HOSTILE_FILE, "MARKER"):
            assert text not in source
        assert "__import__" not in source and "'" not in source and '"' not in source


READS = """class P { var a; var b; def init() { this.a = 1; this.b = 2; } }
def make() { return new P(); }
def sum(p) { return p.a + p.b; }
"""


def test_flush_makes_compiled_reads_cold_again(tier1_immediately, entries):
    interpreter = Interpreter(compile_source(READS))
    obj = interpreter.call_function("make", [])
    stats = interpreter.cache.stats
    misses = []
    for flush in (False, True, False):
        if flush:
            interpreter.cache.flush()
        before = stats.read_misses
        assert interpreter.call_function("sum", [obj]) == 3
        misses.append(stats.read_misses - before)
    assert [name for name, _ in entries].count("sum") == 3
    # Warm from the constructor's writes, cold after the flush, warm again.
    assert misses[0] == 0 and misses[1] > 0 and misses[2] == 0
