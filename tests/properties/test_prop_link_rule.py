"""Property-based tests for the one link rule: a link is its slower
endpoint at every instant, for scalars and traces alike."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.network import BandwidthMatrix
from repro.cluster.traces import ConstantTrace, PiecewiseTrace, min_trace

# Few distinct breakpoints and levels, so drawn specs share breakpoints,
# tie, and cross each other often.
_TIMES = st.sampled_from([0.5, 1.0, 2.5, 5.0, 7.5, 40.0, 300.0])
_LEVELS = st.one_of(st.sampled_from([5.0, 20.0, 35.0, 50.0]), st.floats(0.1, 1e4))


@st.composite
def piecewise(draw):
    times = sorted(draw(st.lists(_TIMES, max_size=5, unique=True)))
    levels = draw(st.lists(_LEVELS, min_size=len(times) + 1, max_size=len(times) + 1))
    return PiecewiseTrace(list(zip([0.0] + times, levels)))


specs = st.one_of(_LEVELS, _LEVELS.map(ConstantTrace), piecewise())
instants = st.one_of(_TIMES, st.just(0.0), st.floats(0, 1e3))


def _at(spec, t):
    return spec.value_at(t) if hasattr(spec, "value_at") else float(spec)


@given(a=specs, b=specs, t=instants)
@settings(max_examples=300, deadline=None)
def test_min_trace_is_the_pointwise_minimum(a, b, t):
    assert min_trace(a, b).value_at(t) == min(_at(a, t), _at(b, t))


@given(a=specs, b=specs)
@settings(max_examples=200, deadline=None)
def test_min_trace_collapses_equal_levels(a, b):
    m = min_trace(a, b)
    if isinstance(m, PiecewiseTrace):
        assert len(m._values) > 1
        assert all(x != y for x, y in zip(m._values, m._values[1:]))


@given(a=st.one_of(_LEVELS.map(ConstantTrace), piecewise()), k=st.floats(1e-3, 1e3), t=instants)
@settings(max_examples=200, deadline=None)
def test_scaled_multiplies_every_level(a, k, t):
    assert a.scaled(k).value_at(t) == a.value_at(t) * k


@given(
    caps=st.lists(specs, min_size=2, max_size=5),
    shared_egress=st.booleans(),
    t=instants,
)
@settings(max_examples=200, deadline=None)
def test_every_link_is_its_slower_endpoint(caps, shared_egress, t):
    net = BandwidthMatrix.from_worker_capacity(caps, shared_egress=shared_egress)
    for i, ci in enumerate(caps):
        for j, cj in enumerate(caps):
            if i != j:
                assert net.bandwidth_at(i, j, t) == min(_at(ci, t), _at(cj, t))
