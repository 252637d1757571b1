"""Interpreter (VM) semantics tests."""

import pytest

from repro.runtime import ReproRuntimeError, StepLimitExceeded
from repro.ir import compile_source
from repro.runtime.interp import Interpreter

from conftest import output_of, run_source
from vm_golden import STEP_LIMIT_SOURCE


class TestArithmetic:
    def test_integer_ops(self):
        assert output_of("def main() { print(7 + 3, 7 - 3, 7 * 3); }") == ["10 4 21"]

    def test_integer_division_truncates_toward_zero(self):
        assert output_of("def main() { print(7 / 2, -7 / 2, 7 / -2); }") == ["3 -3 -3"]

    def test_integer_modulo_c_style(self):
        assert output_of("def main() { print(7 % 3, -7 % 3, 7 % -3); }") == ["1 -1 1"]

    def test_float_division(self):
        assert output_of("def main() { print(7.0 / 2.0); }") == ["3.5"]

    def test_mixed_int_float_promotes(self):
        assert output_of("def main() { print(1 + 0.5, 3 * 2.0); }") == ["1.5 6"]

    def test_division_by_zero(self):
        with pytest.raises(ReproRuntimeError):
            run_source("def main() { print(1 / 0); }")

    def test_modulo_by_zero(self):
        with pytest.raises(ReproRuntimeError):
            run_source("def main() { print(1 % 0); }")

    def test_unary_minus(self):
        assert output_of("def main() { var x = 5; print(-x, -(-x)); }") == ["-5 5"]

    def test_unary_minus_on_string_fails(self):
        with pytest.raises(ReproRuntimeError):
            run_source('def main() { print(-"x"); }')

    def test_string_concatenation(self):
        assert output_of('def main() { print("ab" + "cd"); }') == ["abcd"]

    def test_string_plus_number_fails(self):
        with pytest.raises(ReproRuntimeError):
            run_source('def main() { print("a" + 1); }')

    def test_string_comparison(self):
        assert output_of('def main() { print("a" < "b", "b" <= "a"); }') == ["true false"]


class TestEqualityAndTruthiness:
    def test_numeric_equality_across_kinds(self):
        assert output_of("def main() { print(1 == 1.0, 1 != 2); }") == ["true true"]

    def test_bool_not_equal_to_int(self):
        assert output_of("def main() { print(true == 1, false == 0); }") == ["false false"]

    def test_nil_equality(self):
        assert output_of("def main() { print(nil == nil, nil == 0); }") == ["true false"]

    def test_reference_identity(self):
        out = output_of(
            "class A { }\n"
            "def main() { var a = new A(); var b = new A(); var c = a;\n"
            "  print(a == b, a == c, a != b); }"
        )
        assert out == ["false true true"]

    def test_truthiness(self):
        out = output_of(
            'def main() { print(!0, !1, !0.0, !nil, !false, !"", !"x"); }'
        )
        assert out == ["true false true true true true false"]

    def test_object_is_truthy(self):
        out = output_of(
            "class A { } def main() { var a = new A(); if (a) print(1); else print(2); }"
        )
        assert out == ["1"]


class TestObjects:
    def test_constructor_and_field_access(self):
        out = output_of(
            "class P { var x; def init(x) { this.x = x; } }\n"
            "def main() { var p = new P(9); print(p.x); }"
        )
        assert out == ["9"]

    def test_uninitialized_field_is_nil(self):
        out = output_of(
            "class P { var x; } def main() { print(new P().x); }"
        )
        assert out == ["nil"]

    def test_class_without_init_rejects_args(self):
        with pytest.raises(ReproRuntimeError):
            run_source("class P { } def main() { new P(1); }")

    def test_inherited_fields_and_methods(self):
        out = output_of(
            "class A { var x; def init(v) { this.x = v; } def get() { return this.x; } }\n"
            "class B : A { def double() { return this.get() * 2; } }\n"
            "def main() { print(new B(21).double()); }"
        )
        assert out == ["42"]

    def test_method_override(self):
        out = output_of(
            "class A { def who() { return 1; } }\n"
            "class B : A { def who() { return 2; } }\n"
            "def main() { var objs = array(2); objs[0] = new A(); objs[1] = new B();\n"
            "  print(objs[0].who(), objs[1].who()); }"
        )
        assert out == ["1 2"]

    def test_super_call(self):
        out = output_of(
            "class A { def m() { return 10; } }\n"
            "class B : A { def m() { return super.m() + 1; } }\n"
            "def main() { print(new B().m()); }"
        )
        assert out == ["11"]

    def test_missing_method(self):
        with pytest.raises(ReproRuntimeError):
            run_source("class A { } def main() { new A().nope(); }")

    def test_missing_field(self):
        with pytest.raises(ReproRuntimeError):
            run_source("class A { } def main() { print(new A().nope); }")

    def test_field_access_on_nil(self):
        with pytest.raises(ReproRuntimeError):
            run_source("def main() { var x = nil; print(x.f); }")

    def test_send_to_int(self):
        with pytest.raises(ReproRuntimeError):
            run_source("def main() { var x = 1; x.m(); }")

    def test_recursion(self):
        out = output_of(
            "def fib(n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }\n"
            "def main() { print(fib(15)); }"
        )
        assert out == ["610"]


class TestArrays:
    def test_create_read_write(self):
        out = output_of(
            "def main() { var a = array(3); a[1] = 5; print(a[0], a[1], len(a)); }"
        )
        assert out == ["nil 5 3"]

    def test_index_out_of_range(self):
        with pytest.raises(ReproRuntimeError):
            run_source("def main() { var a = array(2); print(a[2]); }")

    def test_negative_index(self):
        with pytest.raises(ReproRuntimeError):
            run_source("def main() { var a = array(2); print(a[-1]); }")

    def test_non_integer_index(self):
        with pytest.raises(ReproRuntimeError):
            run_source("def main() { var a = array(2); print(a[1.5]); }")

    def test_negative_size(self):
        with pytest.raises(ReproRuntimeError):
            run_source("def main() { array(-1); }")

    def test_len_of_non_array(self):
        with pytest.raises(ReproRuntimeError):
            run_source("def main() { print(len(5)); }")

    def test_indexing_non_array(self):
        with pytest.raises(ReproRuntimeError):
            run_source("def main() { var x = 3; print(x[0]); }")

    def test_arrays_hold_objects(self):
        out = output_of(
            "class P { var v; def init(v) { this.v = v; } }\n"
            "def main() {\n"
            "  var a = array(3);\n"
            "  for (var i = 0; i < 3; i = i + 1) { a[i] = new P(i * i); }\n"
            "  var total = 0;\n"
            "  for (var j = 0; j < 3; j = j + 1) { total = total + a[j].v; }\n"
            "  print(total);\n"
            "}"
        )
        assert out == ["5"]


class TestBuiltins:
    def test_math_builtins(self):
        out = output_of(
            "def main() { print(sqrt(16.0), abs(-3), floor(2.7), ceil(2.1)); }"
        )
        assert out == ["4 3 2 3"]

    def test_min_max_pow(self):
        assert output_of("def main() { print(min(2, 5), max(2, 5), pow(2, 10)); }") == [
            "2 5 1024"
        ]

    def test_int_float_conversions(self):
        assert output_of("def main() { print(int(3.9), float(2)); }") == ["3 2"]

    def test_sqrt_negative(self):
        with pytest.raises(ReproRuntimeError):
            run_source("def main() { sqrt(-1.0); }")

    def test_assert_true_passes_and_fails(self):
        assert output_of("def main() { assert_true(1); print(1); }") == ["1"]
        with pytest.raises(ReproRuntimeError):
            run_source("def main() { assert_true(0); }")

    def test_print_formats(self):
        out = output_of(
            'def main() { print(1, 2.5, true, nil, "s"); print(); }'
        )
        assert out == ["1 2.5 true nil s", ""]

    def test_print_object_is_opaque(self):
        out = output_of("class A { } def main() { print(new A()); }")
        assert out == ["<object>"]


class TestVMLimits:
    def test_step_limit(self):
        program = compile_source("def main() { while (true) { } }")
        with pytest.raises(StepLimitExceeded):
            Interpreter(program, max_steps=10_000).run()

    def test_step_limit_is_a_resource_limit_error(self):
        # Callers (the fuzz oracle, the daemon) catch the common base to
        # distinguish budget exhaustion from genuine crashes.
        from repro.runtime import ResourceLimitError

        assert issubclass(StepLimitExceeded, ResourceLimitError)
        assert issubclass(ResourceLimitError, ReproRuntimeError)

    def test_heap_cell_budget_on_objects(self):
        from repro.runtime import HeapLimitExceeded

        source = (
            "class A { var f; def init(v) { this.f = v; } }\n"
            "def main() { var i = 0; while (i < 1000) "
            "{ var a = new A(i); i = i + 1; } }"
        )
        with pytest.raises(HeapLimitExceeded):
            run_source(source, max_heap_cells=50)
        # A generous budget lets the same program finish.
        run_source(source, max_heap_cells=100_000)

    def test_heap_cell_budget_on_arrays(self):
        from repro.runtime import HeapLimitExceeded

        source = "def main() { var a = array(5000); print(len(a)); }"
        with pytest.raises(HeapLimitExceeded):
            run_source(source, max_heap_cells=100)

    def test_step_budget_via_run_kwargs(self):
        with pytest.raises(StepLimitExceeded):
            run_source("def main() { while (true) { } }", max_steps=5_000)

    def test_missing_main(self):
        program = compile_source("def helper() { }")
        with pytest.raises(ReproRuntimeError):
            Interpreter(program).run()

    def test_stats_are_collected(self):
        result = run_source(
            "class A { var f; def init(v) { this.f = v; } }\n"
            "def main() { var a = new A(1); print(a.f); a.m2(); }"
            .replace("a.m2();", "")
        )
        stats = result.stats
        assert stats.instructions > 0
        assert stats.allocations == 1
        assert stats.heap_reads >= 1
        assert stats.heap_writes >= 1
        assert stats.cycles() > stats.instructions

    def test_call_depth_tracked(self):
        result = run_source(
            "def rec(n) { if (n == 0) return 0; return rec(n - 1); }\n"
            "def main() { rec(50); }"
        )
        assert result.stats.max_call_depth >= 50


class TestLimitAndErrorExactness:
    """The VM charges instructions per call-free segment; a budget that
    runs out mid-segment must still stop at exactly the instruction, and
    errors must keep their message and ``file:line``.  The expected
    locations below were recorded on the per-instruction interpreter the
    segmented one replaced (test_vm_golden.py checks every budget of
    ``STEP_LIMIT_SOURCE``)."""

    CALLS = STEP_LIMIT_SOURCE

    def _stopped_at(self, max_steps):
        interpreter = Interpreter(compile_source(self.CALLS, "limits.icc"), max_steps=max_steps)
        with pytest.raises(StepLimitExceeded) as info:
            interpreter.run()
        return str(info.value), interpreter.stats.instructions

    @pytest.mark.parametrize(
        "max_steps, where",
        [
            # The callee returns with the budget spent: the caller's next
            # instruction, mid-block after the call, is the one refused.
            (64, "limits.icc:11:22"),
            # The budget runs out inside the callee.
            (61, "limits.icc:4:16"),
            # Inside the constructor the New instruction called.
            (3, "limits.icc:3:21"),
        ],
        ids=["after-call", "in-callee", "in-constructor"],
    )
    def test_step_limit_names_the_crossing_instruction(self, max_steps, where):
        message, executed = self._stopped_at(max_steps)
        assert message == f"{where}: exceeded {max_steps} instructions"
        assert executed == max_steps + 1

    def test_heap_limit_raised_at_the_same_allocation(self):
        from repro.runtime import HeapLimitExceeded

        source = """class P { var a; var b; def init(v) { this.a = v; this.b = v; } }
def main() {
  var keep = array(4);
  var i = 0;
  while (i < 100) {
    var p = new P(i);
    keep[i % 4] = p;
    i = i + 1;
  }
}
"""
        interpreter = Interpreter(compile_source(source, "heap.icc"), max_heap_cells=60)
        with pytest.raises(HeapLimitExceeded) as info:
            interpreter.run()
        assert str(info.value) == "heap.icc:6:13: exceeded 60 heap cells"
        assert interpreter.stats.allocations == 20
        assert interpreter.stats.allocated_slots == 63

    @pytest.mark.parametrize(
        "source, message",
        [
            (
                'def main() {\n  var a = 1;\n  var b = a + 2;\n  var c = b * "x";\n  print(c);\n}\n',
                "err.icc:4:13: invalid operands for '*': 3, x",
            ),
            (
                "class Q { var f; }\ndef main() {\n  var q = new Q();\n  var n = nil;\n"
                "  var s = q.f;\n  print(n.f);\n}\n",
                "err.icc:6:10: field access .f on non-object nil",
            ),
        ],
        ids=["operand-type", "field-of-nil"],
    )
    def test_runtime_error_inside_a_segment_keeps_message_and_line(self, source, message):
        with pytest.raises(ReproRuntimeError) as info:
            Interpreter(compile_source(source, "err.icc")).run()
        assert str(info.value) == message

    def test_finished_run_frees_the_interpreter_without_the_cycle_collector(self):
        import gc
        import weakref

        interpreter = Interpreter(compile_source(self.CALLS))
        interpreter.run()
        ref = weakref.ref(interpreter)
        gc.disable()
        try:
            del interpreter
            assert ref() is None
        finally:
            gc.enable()


@pytest.mark.usefixtures("tier1_immediately")
class TestLimitAndErrorExactnessInTier1(TestLimitAndErrorExactness):
    """The same limits, errors and lifetime with every callable compiled
    to its tier-1 function on its first call."""
