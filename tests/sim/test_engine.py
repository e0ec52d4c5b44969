"""Unit tests for the engine-mode selector."""

import pytest

from repro.sim.engine import EngineMode


class TestEngineMode:
    def test_two_modes_vectorized_by_default(self):
        assert [mode.value for mode in EngineMode] == ["interpreter",
                                                       "vectorized"]
        assert EngineMode.parse(None) is EngineMode.VECTORIZED

    def test_parse_is_case_insensitive_and_idempotent(self):
        assert EngineMode.parse("Interpreter") is EngineMode.INTERPRETER
        assert EngineMode.parse(EngineMode.VECTORIZED) \
            is EngineMode.VECTORIZED

    def test_retired_stepper_mode_is_unknown(self):
        with pytest.raises(ValueError,
                           match="expected one of: interpreter, vectorized"):
            EngineMode.parse("stepper")
