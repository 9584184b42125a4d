"""Property tests against synthetic ground truth.

The decomposition's kinds depend on neither pose nor scale: on the truth
polyline of a random straight/arc spec, moved rigidly and scaled, with
the tolerance scaled alike, decompose_centerline reports the spec's kinds.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import tubeaxis as tx
from conftest import quaternion_rotation
from tubeaxis.track import Centerline

_UNIT = st.floats(-1.0, 1.0)
_QUATERNION = st.tuples(_UNIT, _UNIT, _UNIT, _UNIT).filter(lambda q: np.linalg.norm(q) > 0.1)


@st.composite
def _arcs(draw):
    """Radius 2 to 30, turn 45 to 180 degrees in at least 5 unit steps, in
    a random bending plane."""
    angle = math.radians(draw(st.floats(45.0, 180.0)))
    radius = draw(st.floats(max(2.0, 5.0 / angle), 30.0))
    return tx.Arc(radius, angle, draw(st.floats(0.0, 2 * math.pi)))


@st.composite
def _specs(draw):
    """One to four segments, alternating straight (10 to 40 long) and arc."""
    count = draw(st.integers(1, 4))
    first_arc = draw(st.booleans())
    return [draw(_arcs() if (i % 2 == 1) != first_arc else st.builds(tx.Straight,
                                                                      st.floats(10.0, 40.0)))
            for i in range(count)]


@settings(max_examples=300)
@given(segments=_specs(), q=_QUATERNION, shift=st.tuples(*(st.floats(-1e3, 1e3),) * 3),
       log_scale=st.floats(-2.0, 2.0))
def test_kinds_match_the_spec_in_any_pose_and_scale(segments, q, shift, log_scale):
    # the truth polyline has a point about every 1, and the tolerance is
    # 0.05 of the unit, scaled with the polyline
    scale = 10.0 ** log_scale
    _, truth = tx.gen_tube(segments, 0.5, 1.0)
    points = scale * truth.points @ quaternion_rotation(q).T + np.asarray(shift)
    dec = tx.decompose_centerline(Centerline(points, np.zeros_like(points)),
                                  resid_tol=0.05 * scale)
    assert dec.kinds() == "".join("A" if isinstance(s, tx.Arc) else "S" for s in segments)
    assert dec.segments[0].start == 0 and dec.segments[-1].end == len(points) - 1
    assert all(a.end == b.start for a, b in zip(dec.segments, dec.segments[1:]))
