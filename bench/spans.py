"""Per-layer span recording for the qmeter benchmark.

The benchmark wraps the public functions of each qmeter layer from outside
the package: every wrapper opens a span, and a span's self time is its
duration minus the time covered by the spans it caused. Spans are aggregated
per name as they close (calls, self time, errors, items), so a run with
millions of spans holds a few dozen counters rather than the span list.

A function imported by name into another module (``from .matkernel import
hermitian_eig``) is looked up in the importing module, so it is wrapped at
every module listed for it in :func:`qmeter_sites`.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class SpanStats:
    """Aggregate of every closed span of one name."""

    calls: int = 0
    self_ns: int = 0
    errors: int = 0
    items: int = 0


class Tracer:
    """Records nested spans around wrapped functions on a single thread."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self._open: list[list[int]] = []

    def wrap(self, name, fn, items=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``items``, if given, maps the function's return value to a work count
        that is added to the span's ``items`` total.
        """
        stats = self.stats.setdefault(name, SpanStats())
        open_spans = self._open
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_ns = [0]
            open_spans.append(child_ns)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stats.errors += 1
                raise
            finally:
                span = clock() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += span
                stats.calls += 1
                stats.self_ns += span - child_ns[0]
            if items is not None:
                stats.items += items(result)
            return result

        return traced

    @contextmanager
    def installed(self, sites):
        """Replace every site's attribute by its traced wrapper, then restore it.

        ``sites`` is a list of ``(name, [(owner, attribute), ...], items)``.
        """
        saved = []
        try:
            for name, owners, items in sites:
                for owner, attr in owners:
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original, items))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def qmeter_sites():
    """The wrapped qmeter functions, by span name, with every module they are looked up in."""
    from qmeter import cli, estimator, haar, measurement
    from qmeter.measurement import Measurement

    def rows(states):
        return states.shape[0]

    return [
        ("matkernel.hermitian_eig", [(measurement, "hermitian_eig"), (estimator, "hermitian_eig")], None),
        # Reached only through Measurement.bi_orthogonal_factors, which no CLI command calls.
        ("matkernel.polar_decompose", [(measurement, "polar_decompose")], None),
        ("measurement.init", [(Measurement, "__init__")], None),
        ("measurement.outcome_distribution", [(Measurement, "outcome_distribution")], None),
        ("measurement.collapse", [(Measurement, "collapse")], None),
        ("measurement.sample_outcome", [(Measurement, "sample_outcome")], None),
        (
            "measurement.as_state",
            [(measurement, "as_state"), (estimator, "as_state"), (haar, "as_state"), (cli, "as_state")],
            None,
        ),
        ("estimator.check_bound", [(estimator, "check_bound")], None),
        ("estimator.estimate_pair", [(estimator, "estimate_pair")], None),
        ("estimator.best_post_estimate", [(estimator, "best_post_estimate")], None),
        ("estimator.best_pre_estimate", [(estimator, "best_pre_estimate")], None),
        ("haar.haar_state", [(haar, "haar_state")], None),
        ("haar.haar_states", [(haar, "haar_states")], rows),
        ("haar.g_post_integrand", [(haar, "g_post_integrand")], None),
        ("haar.g_pre_integrand", [(haar, "g_pre_integrand")], None),
        ("haar.operation_integrand", [(haar, "operation_integrand")], None),
        ("haar.mc_g_post", [(haar, "mc_g_post")], None),
        ("haar.mc_g_pre", [(haar, "mc_g_pre")], None),
        ("haar.mc_operation_fidelity", [(haar, "mc_operation_fidelity")], None),
        ("cli.load_device", [(cli, "load_device")], None),
        ("cli.main", [(cli, "main")], None),
    ]


LAYERS = ["matkernel", "measurement", "estimator", "haar", "cli"]
