"""Property-based tests of the input validators at the API boundary.

``KernelTriple`` is the geometry every kernel profile takes: two radii and
the distance between the points.  It accepts every triple realized by two
radii and an enclosed angle, and rejects lengths that are negative or not
finite and triples outside the triangle inequality by more than its slack
of 1e-9 times the summed lengths.  A 1-D array of distances for one pair
of radii is accepted exactly when each of its elements would be, and a
rejected one names its first bad element as a scalar triple would.

``cli._read_config_file`` parses ``key = value`` lines with ``#`` comments
and blank lines, and rejects any other non-blank line with its line number.
"""

import math
import os
import string
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hardyops.cli import CliError, _read_config_file
from hardyops.errors import DomainError
from hardyops.kernels import KernelTriple

property_settings = settings(max_examples=300, deadline=None)

# Radii whose squares and products stay normal doubles.
radii = st.one_of(st.just(0.0), st.floats(min_value=1e-150, max_value=1e150))
angles = st.floats(min_value=0.0, max_value=math.pi)
# Relative violations of at least 3e-9 stay clear of the 1e-9 slack, which
# scales with the sum of all three lengths (at most about twice rx + ry).
violations = st.floats(min_value=3e-9, max_value=1e3)


def _chord(rx: float, ry: float, theta: float) -> float:
    return math.sqrt((rx - ry) ** 2 + 2.0 * rx * ry * (1.0 - math.cos(theta)))


@property_settings
@given(rx=radii, ry=radii, theta=angles)
def test_triple_accepts_every_angle(rx, ry, theta):
    triple = KernelTriple(rx, ry, _chord(rx, ry, theta))
    assert (triple.rx, triple.ry) == (rx, ry)


@property_settings
@given(
    rx=radii,
    ry=radii,
    theta=angles,
    bad=st.one_of(
        st.floats(max_value=-math.ulp(0.0)),
        st.sampled_from([math.inf, -math.inf, math.nan]),
    ),
    slot=st.integers(min_value=0, max_value=2),
)
def test_triple_rejects_negative_or_non_finite_lengths(rx, ry, theta, bad, slot):
    lengths = [rx, ry, _chord(rx, ry, theta)]
    lengths[slot] = bad
    with pytest.raises(DomainError):
        KernelTriple(*lengths)


@property_settings
@given(rx=radii, ry=radii, excess=violations)
def test_triple_rejects_distance_beyond_the_sum(rx, ry, excess):
    assume(rx + ry > 0.0)
    with pytest.raises(DomainError):
        KernelTriple(rx, ry, (rx + ry) * (1.0 + excess))


@property_settings
@given(rx=radii, ry=radii, shortfall=st.floats(min_value=3e-9, max_value=1.0))
def test_triple_rejects_distance_below_the_difference(rx, ry, shortfall):
    assume(rx != ry)
    rxy = abs(rx - ry) - shortfall * (rx + ry)
    assume(rxy >= 0.0)
    with pytest.raises(DomainError):
        KernelTriple(rx, ry, rxy)


def _accepts(rx, ry, rxy) -> bool:
    try:
        KernelTriple(rx, ry, rxy)
    except DomainError:
        return False
    return True


# Chords of the pair from sampled angles, scaled by up to 1e-8 either way so
# that some fall outside the triangle slack, plus arbitrary lengths.
chord_lists = st.lists(
    st.one_of(
        st.tuples(angles, st.floats(min_value=-1e-8, max_value=1e-8)),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    max_size=12,
)


@property_settings
@given(rx=radii, ry=radii, entries=chord_lists)
def test_chord_array_accepted_exactly_when_every_chord_is(rx, ry, entries):
    chords = np.array(
        [_chord(rx, ry, e[0]) * (1.0 + e[1]) if isinstance(e, tuple) else e for e in entries],
        dtype=float,
    )
    expected = all(_accepts(rx, ry, float(x)) for x in chords)
    assert _accepts(rx, ry, chords) == expected


@property_settings
@given(
    rx=radii,
    ry=radii,
    thetas=st.lists(angles, min_size=1, max_size=12),
    bad=st.sampled_from([math.inf, -math.inf, math.nan]),
    data=st.data(),
)
def test_chord_array_rejects_non_finite_and_two_dimensional(rx, ry, thetas, bad, data):
    chords = np.array([_chord(rx, ry, theta) for theta in thetas])
    KernelTriple(rx, ry, chords)
    with pytest.raises(DomainError):
        KernelTriple(rx, ry, chords[None, :])
    with pytest.raises(DomainError):
        KernelTriple(rx, ry, chords.reshape(-1, 1))
    at = data.draw(st.integers(min_value=0, max_value=len(chords) - 1))
    chords[at] = bad
    with pytest.raises(DomainError):
        KernelTriple(rx, ry, chords)


def _message(*lengths) -> str:
    try:
        KernelTriple(*lengths)
    except DomainError as exc:
        return str(exc)
    return "accepted"


# Lengths that pass, fail one rule, or sit near the triangle's edges.
lengths = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 1.0 + 2e-9, 3.0 - 4e-9]),
)


@property_settings
@given(rx=lengths, ry=lengths, rxy=lengths)
def test_scalar_and_one_entry_array_triples_give_the_same_message(rx, ry, rxy):
    # A scalar triple is the 0-d case of the array rules, so it fails, or
    # passes, as its one-entry array does: a 1-D chord array for scalar
    # radii, and a batch of one pair.
    expected = _message(rx, ry, rxy)
    assert _message(rx, ry, np.array([rxy])) == expected
    assert _message(np.array([rx]), np.array([ry]), np.array([rxy])) == expected


# ---------------------------------------------------------------------------
# config files

keys = st.text(alphabet=string.ascii_lowercase + string.digits + "_-", min_size=1, max_size=12)
values = st.text(
    alphabet=string.ascii_letters + string.digits + " .,+-=:/_", min_size=1, max_size=20
).filter(lambda v: v.strip())
padding = st.text(alphabet=" \t", max_size=3)
# Anything on one line: no control, line or paragraph separators, which
# str.splitlines would break on.
comments = st.text(
    alphabet=st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=20
).map(lambda text: "#" + text)


@st.composite
def entries(draw):
    key, value = draw(keys), draw(values)
    left, middle, right = draw(padding), draw(padding), draw(padding)
    tail = draw(st.one_of(st.just(""), comments))
    line = f"{left}{key}{middle}={right}{value}{tail}"
    return line, (key, value.strip())


fillers = st.one_of(padding, padding.flatmap(lambda pad: comments.map(lambda c: pad + c)))
lines = st.one_of(entries(), fillers.map(lambda line: (line, None)))

malformed = st.one_of(
    # no separator at all
    st.text(alphabet=string.ascii_letters + " ", min_size=1, max_size=12).filter(
        lambda t: t.strip()
    ),
    # empty key
    st.builds(lambda pad, value: f"{pad}= {value}", padding, values),
    # empty value, possibly hidden behind a comment
    st.builds(lambda key, pad, tail: f"{key} ={pad}{tail}", keys, padding,
              st.one_of(st.just(""), comments)),
)


def _read(text: str) -> list:
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "run.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return _read_config_file(path)


@property_settings
@given(body=st.lists(lines, max_size=10))
def test_config_file_round_trips(body):
    text = "\n".join(line for line, _ in body) + "\n"
    assert _read(text) == [item for _, item in body if item is not None]


@property_settings
@given(body=st.lists(lines, max_size=6), bad=malformed, data=st.data())
def test_config_file_rejects_malformed_lines(body, bad, data):
    at = data.draw(st.integers(min_value=0, max_value=len(body)))
    text_lines = [line for line, _ in body]
    text_lines.insert(at, bad)
    with pytest.raises(CliError, match=f":{at + 1}: expected 'key = value'"):
        _read("\n".join(text_lines) + "\n")
