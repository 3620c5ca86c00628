import xml.etree.ElementTree as ET

from techsub.svgplot import render_scatter


def test_markup_characters_in_text_are_escaped():
    svg = render_scatter(
        [1.0, 2.0], [3.0, 4.0], title="a < b & c > d", xlabel="x", ylabel="y"
    )
    assert ">a &lt; b &amp; c &gt; d</text>" in svg
    assert ET.fromstring(svg).find("{http://www.w3.org/2000/svg}text").text == "a < b & c > d"
