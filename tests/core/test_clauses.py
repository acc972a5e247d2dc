"""The shared clause grammar: tokenizer rules, and hostile input for the
four parsers built on it (``--faults``, ``--scenario``, ``--workload``,
``--trace-filter``)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clauses import scalar, split_clauses, split_pairs
from repro.core.config import check_window
from repro.core.errors import ConfigurationError
from repro.core.tracing import EventFilter
from repro.faults import parse_faults_spec
from repro.scenarios import parse_scenario_spec
from repro.workload import parse_workload_spec

from tests.conftest import quick_config


class TestTokenizer:
    def test_clause_parts_and_windows(self):
        a, b, c = split_clauses(" loss = 0.1 @ 10 : 20 ;; crash=3@5; link-down ", "--x")
        assert (a.head, a.arg, a.start, a.end) == ("loss", "0.1", 10.0, 20.0)
        assert (b.head, b.arg, b.start, b.end) == ("crash", "3", 5.0, None)
        assert (c.head, c.arg, c.start, c.end) == ("link-down", None, 0.0, None)
        assert split_clauses("x=@:", "--x")[0] == ("--x clause 'x=@:'", "x", "", 0.0, None)

    @pytest.mark.parametrize("window", ["@nan", "@inf", "@1e999", "@-1", "@5:5", "@5:3",
                                        "@a", "@true", "@1:2:3"])
    def test_one_window_rule(self, window):
        with pytest.raises(ConfigurationError, match=r"^--x clause 'k@.*': window"):
            split_clauses(f"k{window}", "--x")

    def test_pairs_skip_empty_items_and_reject_repeats(self):
        assert split_pairs(" a:1 ,, b : x:y ,", "--x") == {"a": "1", "b": "x:y"}
        for bad, match in [("a:1,a:2", "'a:2'"), ("a", "'a'"), (":1", "':1'"), ("a:", "'a:'")]:
            with pytest.raises(ConfigurationError, match=f"^--x: bad or repeated entry {match}"):
                split_pairs(bad, "--x")
        with pytest.raises(ConfigurationError, match="^--x: empty parameter list"):
            split_pairs(" , ", "--x")

    @pytest.mark.parametrize("text,value", [
        ("true", True), ("FALSE", False), ("7", 7), ("-2", -2), ("2.5", 2.5),
        ("1e3", 1000.0), ("abc", "abc"), ("1+b+2.0", [1, "b", 2.0]),
    ])
    def test_scalar_rule(self, text, value):
        parsed = scalar(text, "v")
        assert parsed == value and type(parsed) is type(value)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999", "1+nan"])
    def test_scalar_rejects_non_finite_numbers(self, text):
        with pytest.raises(ConfigurationError, match="v must be a finite number"):
            scalar(text, "v")

    def test_scalar_number_kinds(self):
        assert scalar("3", "v", float) == 3.0 and type(scalar("3", "v", float)) is float
        for text, number in [("3.5", int), ("true", float), ("1+2", float), ("x", int)]:
            with pytest.raises(ConfigurationError, match="^v must be"):
                scalar(text, "v", number)


#: The grammar's alphabet as tokens: heads from every flag, separators,
#: numbers good and bad.
TOKENS = [
    "loss", "delay", "crash", "link-down", "lossy-network", "failstop",
    "targeted-delay", "partition", "adaptive", "scenario", "kind", "nodes",
    "window", "rate", "clients", "batch", "timeout", "factor", "count",
    "targets", "nodes", ";", "=", "@", ":", ",", "+", "x", " ", "0", "1", "3",
    "0.5", "-1", "1e3", "nan", "inf", "-inf", "1e999", "true", "abc",
]
HOSTILE = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=12).map("".join),
    st.text(alphabet=";=@:,+x0123456789.-naifte ", max_size=24),
)


def _scenario(text):
    parse_scenario_spec(text).validate(quick_config(n=4))


def _faults(text):
    parse_faults_spec(text).validate(4)


def _workload(text):
    parse_workload_spec(text).validate()


def _trace_filter(text):
    parsed = EventFilter.parse(text)
    check_window("filter", parsed.start, parsed.end)


@pytest.mark.parametrize("parse", [_faults, _scenario, _workload, _trace_filter])
@settings(max_examples=300)
@given(text=HOSTILE)
def test_hostile_text_is_a_value_or_a_configuration_error(parse, text):
    try:
        parse(text)
    except ConfigurationError:
        pass
