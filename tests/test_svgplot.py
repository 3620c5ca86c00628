import html
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given
from hypothesis import strategies as st

from techsub.svgplot import render_scatter


def test_markup_characters_in_text_are_escaped():
    svg = render_scatter(
        [1.0, 2.0], [3.0, 4.0], title="a < b & c > d", xlabel="x", ylabel="y"
    )
    assert ">a &lt; b &amp; c &gt; d</text>" in svg
    assert ET.fromstring(svg).find("{http://www.w3.org/2000/svg}text").text == "a < b & c > d"


@given(st.text(st.characters(min_codepoint=0x20, max_codepoint=0x2FF), max_size=30))
def test_every_label_round_trips_through_an_xml_parser(text):
    svg = render_scatter(
        [1.0, 2.0], [3.0, 4.0], title=text, xlabel=text, ylabel=text,
        annotation=text or "a", vline=(1.5, text),
    )
    assert html.escape(text, quote=False) in svg
    labels = [el.text or "" for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert labels.count(text) >= 4


@pytest.mark.parametrize("x,y", [([], []), ([1.0, 2.0], [3.0])], ids=["empty", "unequal"])
def test_unusable_points_rejected(x, y):
    with pytest.raises(ValueError) as caught:
        render_scatter(x, y, title="t", xlabel="x", ylabel="y")
    assert str(caught.value) == "x and y must be equal-length, non-empty"
