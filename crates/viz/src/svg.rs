//! SVG rendering of a [`Scene`].
//!
//! Hand-rolled writer: the scene's primitive set is small and fixed, so a
//! dependency-free emitter stays trivially auditable. Tooltips become
//! `<title>` children (the native SVG hover affordance), classes carry the
//! presentation-ontology class names. Every element is written straight
//! into the one output buffer — no string per element, attribute or
//! number.

use crate::color::Color;
use crate::scene::{Primitive, Scene};
use std::fmt::Write;

/// Append `s` escaped for XML. Beyond the five predefined entities,
/// control characters outside XML 1.0's character range (everything below
/// U+0020 except tab/newline/carriage return) are replaced with U+FFFD —
/// they cannot be represented in XML at all, even as numeric references,
/// and passing them through would corrupt the whole document. Source
/// strings here include patient note text and code descriptions, which
/// arrive from heterogeneous registries and do contain stray controls.
/// Runs of plain text are copied whole.
fn escape(out: &mut String, s: &str) {
    let mut plain = 0;
    for (at, byte) in s.bytes().enumerate() {
        let entity = match byte {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            b'\'' => "&apos;",
            b'\t' | b'\n' | b'\r' => continue,
            byte if byte < 0x20 => "\u{fffd}",
            _ => continue,
        };
        out.push_str(&s[plain..at]);
        out.push_str(entity);
        plain = at + 1;
    }
    out.push_str(&s[plain..]);
}

/// Append a class name as an SVG-safe token (`viz:Glyph/square` →
/// `viz-Glyph-square`).
fn class_token(out: &mut String, class: &str) {
    let safe = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_';
    out.extend(class.chars().map(|c| if safe(c) { c } else { '-' }));
}

/// Append `v` as `{v:.2}` writes it, with trailing zeros, then a bare
/// point, trimmed: `10.50` → `10.5`, `10.00` → `10`.
fn num(out: &mut String, v: f64) {
    let cents = v * 100.0;
    // Below 2^31 the product is within 2^-22 of `100 v`, so away from a
    // half-cent tie it rounds the way `{:.2}` rounds `v`, and integers
    // print several times faster than floats. Ties (which `{:.2}` breaks
    // to even on the exact value), huge and non-finite values take the
    // float path.
    if !(cents.abs() < 2_147_483_648.0 && (cents.fract().abs() - 0.5).abs() > 1e-6) {
        let start = out.len();
        let _ = write!(out, "{v:.2}");
        let kept = out[start..].trim_end_matches('0').trim_end_matches('.').len();
        out.truncate(start + kept);
        return;
    }
    let cents = cents.round().abs() as u64;
    if v.is_sign_negative() {
        out.push('-');
    }
    let _ = write!(out, "{}", cents / 100);
    let (tenths, hundredths) = ((cents / 10 % 10) as u8, (cents % 10) as u8);
    if tenths + hundredths > 0 {
        out.push('.');
        out.push(char::from(b'0' + tenths));
    }
    if hundredths > 0 {
        out.push(char::from(b'0' + hundredths));
    }
}

/// Append ` name="v"` per pair.
fn attrs(out: &mut String, pairs: &[(&str, f64)]) {
    for &(name, v) in pairs {
        out.push(' ');
        out.push_str(name);
        out.push_str("=\"");
        num(out, v);
        out.push('"');
    }
}

/// Append ` name="#rrggbb"`.
fn color(out: &mut String, name: &str, c: Color) {
    let _ = write!(out, " {name}=\"#{:02x}{:02x}{:02x}\"", c.r, c.g, c.b);
}

/// Render a scene to a standalone SVG document.
pub fn render(scene: &Scene) -> String {
    // Tooltips are most of an element's bytes.
    let tooltips: usize =
        scene.elements.iter().filter_map(|el| el.tooltip.as_ref()).map(String::len).sum();
    let mut out = String::with_capacity(scene.len() * 128 + tooltips + 256);
    out.push_str("<svg xmlns=\"http://www.w3.org/2000/svg\"");
    attrs(&mut out, &[("width", scene.width), ("height", scene.height)]);
    out.push_str(" viewBox=\"0 0 ");
    num(&mut out, scene.width);
    out.push(' ');
    num(&mut out, scene.height);
    out.push_str("\" font-family=\"sans-serif\">\n");
    out.push_str("<rect width=\"100%\" height=\"100%\" fill=\"#ffffff\"/>\n");
    for el in &scene.elements {
        let tag = match el.primitive {
            Primitive::Rect { .. } => "rect",
            Primitive::Line { .. } => "line",
            Primitive::Circle { .. } => "circle",
            Primitive::Polygon { .. } => "polygon",
            Primitive::Text { .. } => "text",
        };
        out.push('<');
        out.push_str(tag);
        out.push_str(" class=\"");
        class_token(&mut out, &el.class);
        out.push('"');
        match &el.primitive {
            Primitive::Rect { x, y, w, h, fill } => {
                attrs(&mut out, &[("x", *x), ("y", *y), ("width", *w), ("height", *h)]);
                color(&mut out, "fill", *fill);
            }
            Primitive::Line { x1, y1, x2, y2, stroke, width } => {
                attrs(&mut out, &[("x1", *x1), ("y1", *y1), ("x2", *x2), ("y2", *y2)]);
                color(&mut out, "stroke", *stroke);
                attrs(&mut out, &[("stroke-width", *width)]);
            }
            Primitive::Circle { cx, cy, r, fill } => {
                attrs(&mut out, &[("cx", *cx), ("cy", *cy), ("r", *r)]);
                color(&mut out, "fill", *fill);
            }
            Primitive::Polygon { points, fill } => {
                out.push_str(" points=\"");
                for (i, &(x, y)) in points.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    num(&mut out, x);
                    out.push(',');
                    num(&mut out, y);
                }
                out.push('"');
                color(&mut out, "fill", *fill);
            }
            // Text carries no title: its content is the detail.
            Primitive::Text { x, y, text, size, fill } => {
                attrs(&mut out, &[("x", *x), ("y", *y), ("font-size", *size)]);
                color(&mut out, "fill", *fill);
                out.push('>');
                escape(&mut out, text);
                out.push_str("</text>\n");
                continue;
            }
        }
        match &el.tooltip {
            None => out.push_str("/>\n"),
            Some(title) => {
                out.push_str("><title>");
                escape(&mut out, title);
                out.push_str("</title></");
                out.push_str(tag);
                out.push_str(">\n");
            }
        }
    }
    out.push_str("</svg>\n");
    out
}

/// The renderer as it was before the single-buffer writer — a `String`
/// per number, color, title, point and element — kept as the reference
/// [`render`] must match byte for byte. Escaping did not change and is
/// shared; the escape tests below pin it.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::scene::{Primitive, Scene};
    use std::fmt::Write;

    fn escape(s: &str) -> String {
        let mut out = String::new();
        super::escape(&mut out, s);
        out
    }

    fn class_token(class: &str) -> String {
        let safe = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_';
        class.chars().map(|c| if safe(c) { c } else { '-' }).collect()
    }

    fn fmt_num(v: f64) -> String {
        let s = format!("{v:.2}");
        let s = s.trim_end_matches('0').trim_end_matches('.');
        if s.is_empty() || s == "-" { "0".to_owned() } else { s.to_owned() }
    }

    pub(crate) fn render(scene: &Scene) -> String {
        let (w, h) = (fmt_num(scene.width), fmt_num(scene.height));
        let mut out = format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" \
             viewBox=\"0 0 {w} {h}\" font-family=\"sans-serif\">\n"
        );
        out.push_str("<rect width=\"100%\" height=\"100%\" fill=\"#ffffff\"/>\n");
        for el in &scene.elements {
            let class = class_token(&el.class);
            let title = el.tooltip.as_ref().map(|t| format!("<title>{}</title>", escape(t)));
            let open_close = |body: String| match &title {
                None => format!("{body}/>\n"),
                Some(title) => {
                    let tag = &body[1..body.find(' ').unwrap_or(body.len())];
                    format!("{body}>{title}</{tag}>\n")
                }
            };
            let n = |v: &f64| fmt_num(*v);
            out.push_str(&match &el.primitive {
                Primitive::Rect { x, y, w, h, fill } => open_close(format!(
                    "<rect class=\"{class}\" x=\"{}\" y=\"{}\" width=\"{}\" height=\"{}\" fill=\"{}\"",
                    n(x), n(y), n(w), n(h), fill.hex()
                )),
                Primitive::Line { x1, y1, x2, y2, stroke, width } => open_close(format!(
                    "<line class=\"{class}\" x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"{}\" \
                     stroke-width=\"{}\"",
                    n(x1), n(y1), n(x2), n(y2), stroke.hex(), n(width)
                )),
                Primitive::Circle { cx, cy, r, fill } => open_close(format!(
                    "<circle class=\"{class}\" cx=\"{}\" cy=\"{}\" r=\"{}\" fill=\"{}\"",
                    n(cx), n(cy), n(r), fill.hex()
                )),
                Primitive::Polygon { points, fill } => {
                    let pts: Vec<String> =
                        points.iter().map(|&(x, y)| format!("{},{}", fmt_num(x), fmt_num(y))).collect();
                    let pts = pts.join(" ");
                    open_close(format!("<polygon class=\"{class}\" points=\"{pts}\" fill=\"{}\"", fill.hex()))
                }
                Primitive::Text { x, y, text, size, fill } => format!(
                    "<text class=\"{class}\" x=\"{}\" y=\"{}\" font-size=\"{}\" fill=\"{}\">{}</text>\n",
                    n(x), n(y), n(size), fill.hex(), escape(text)
                ),
            });
        }
        let _ = writeln!(out, "</svg>");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::GLYPH_INK;
    use crate::scene::Element;
    use proptest::prelude::*;

    fn coord() -> impl Strategy<Value = f64> {
        let edges = [0.0, -0.0, -0.004, 0.005, 0.125, -0.375, 2.675, 1e12, f64::NAN];
        prop_oneof![-3000.0f64..3000.0, (0..edges.len()).prop_map(move |i| edges[i])]
    }

    /// Any primitive, a class and text with markup, quotes and controls,
    /// with or without a tooltip.
    fn element() -> impl Strategy<Value = Element> {
        let ink = (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(r, g, b)| Color::rgb(r, g, b));
        let text = "[a-zA-Z0-9 &<>\"'\u{1}\u{8}\t\n\r:/æ]{0,16}";
        let corners = (coord(), coord(), coord(), coord());
        let points = proptest::collection::vec((coord(), coord()), 0..13);
        (0u8..5, corners, ink, points, text, text, any::<bool>()).prop_map(
            |(kind, (a, b, c, d), fill, points, class, tip, titled)| Element {
                primitive: match kind {
                    0 => Primitive::Rect { x: a, y: b, w: c, h: d, fill },
                    1 => Primitive::Line { x1: a, y1: b, x2: c, y2: d, stroke: fill, width: a },
                    2 => Primitive::Circle { cx: a, cy: b, r: c, fill },
                    3 => Primitive::Polygon { points, fill },
                    _ => Primitive::Text { x: a, y: b, text: tip.clone(), size: c, fill },
                },
                class: class.into(),
                tooltip: titled.then_some(tip),
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The single-buffer writer emits the oracle's bytes exactly.
        #[test]
        fn render_equals_the_oracle(
            (width, height) in (coord(), coord()),
            elements in proptest::collection::vec(element(), 0..24),
        ) {
            let scene = Scene { width, height, elements };
            prop_assert_eq!(render(&scene), oracle::render(&scene));
        }
    }

    /// In each state of the view cycle (three sorts, align on T90, two
    /// filters, then both cleared) at 2,000 patients, the hit-free scene
    /// renders — as SVG and as text — exactly what the hit-collecting
    /// layout renders through the oracle.
    #[test]
    fn view_cycle_scenes_render_like_the_hit_collecting_layout() {
        use crate::timeline::{aligned_viewport, TimelineOptions, TimelineView};
        use crate::{ascii, AxisMode, Viewport};
        use pastas_query::{align_rows, sort_histories, EntryPredicate, SortKey};
        use pastas_synth::{generate_collection, SynthConfig};
        let c = generate_collection(SynthConfig::with_patients(2000), 11);
        let (first, last) = (c.stats().first.unwrap(), c.stats().last.unwrap());
        let calendar = Viewport::new(first, last, 40.0, 1200.0, 700.0);
        let all: Vec<u32> = (0..c.len() as u32).collect();
        let t90 = pastas_regex::Regex::new("T90").unwrap();
        let (alignment, by_anchor) = align_rows(&c, &t90, &all);
        let aligned = AxisMode::Aligned(alignment);
        let chapter_k = EntryPredicate::code_regex("K.*").unwrap();
        let states = [
            (sort_histories(&c, &SortKey::EntryCount), AxisMode::Calendar, None),
            (sort_histories(&c, &SortKey::Span), AxisMode::Calendar, None),
            (sort_histories(&c, &SortKey::FirstEntry), AxisMode::Calendar, None),
            (by_anchor.clone(), aligned.clone(), None),
            (by_anchor.clone(), aligned.clone(), Some(EntryPredicate::IsDiagnosis)),
            (by_anchor.clone(), aligned, Some(chapter_k.clone())),
            (by_anchor.clone(), AxisMode::Calendar, Some(chapter_k)),
            (by_anchor, AxisMode::Calendar, None),
        ];
        for (step, (order, axis, filter)) in states.into_iter().enumerate() {
            let around_anchor = aligned_viewport(24, 24, 40.0, 1200.0, 700.0);
            let vp = if axis.is_aligned() { around_anchor } else { calendar };
            let options = TimelineOptions { axis, filter, ..TimelineOptions::default() };
            let view = TimelineView::new(&c, options).with_order(&order);
            let (laid_out, _) = view.layout(&vp);
            let scene = view.scene(&vp);
            assert_eq!(render(&scene), oracle::render(&laid_out), "step {step}");
            assert_eq!(ascii::render(&scene, 150, 44), ascii::render(&laid_out, 150, 44));
        }
    }

    fn scene_with(p: Primitive) -> Scene {
        let mut s = Scene::new(100.0, 50.0);
        s.push(p, "viz:Glyph/square");
        s
    }

    #[test]
    fn document_structure() {
        let svg = render(&scene_with(Primitive::Rect {
            x: 1.0,
            y: 2.0,
            w: 3.0,
            h: 4.0,
            fill: GLYPH_INK,
        }));
        assert!(svg.starts_with("<svg "));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("width=\"100\""));
        assert!(svg.contains("<rect class=\"viz-Glyph-square\" x=\"1\" y=\"2\""));
    }

    #[test]
    fn tooltips_become_titles() {
        let mut s = Scene::new(10.0, 10.0);
        s.push_with_tooltip(
            Primitive::Circle { cx: 1.0, cy: 1.0, r: 1.0, fill: GLYPH_INK },
            "viz:Glyph/circle",
            "diagnosis T90 (Diabetes <non-insulin>)".into(),
        );
        let svg = render(&s);
        assert!(svg.contains("<title>diagnosis T90 (Diabetes &lt;non-insulin&gt;)</title>"));
        assert!(svg.contains("</circle>"));
    }

    #[test]
    fn text_is_escaped() {
        let svg = render(&scene_with(Primitive::Text {
            x: 0.0,
            y: 0.0,
            text: "BP < 140 & falling".into(),
            size: 10.0,
            fill: GLYPH_INK,
        }));
        assert!(svg.contains("BP &lt; 140 &amp; falling"));
    }

    #[test]
    fn control_characters_cannot_corrupt_the_document() {
        // U+0001 is unrepresentable in XML 1.0 (even as &#1;) — it must be
        // replaced, not passed through. Tab survives: it is a valid char.
        for (raw, escaped) in [("a\u{1}b", "a\u{fffd}b"), ("a\tb", "a\tb")] {
            let mut out = String::new();
            escape(&mut out, raw);
            assert_eq!(out, escaped);
        }
        let mut s = Scene::new(10.0, 10.0);
        s.push_with_tooltip(
            Primitive::Circle { cx: 1.0, cy: 1.0, r: 1.0, fill: GLYPH_INK },
            "viz:Glyph/circle",
            "note \u{1}with\u{8} controls".into(),
        );
        let svg = render(&s);
        assert!(!svg.contains('\u{1}') && !svg.contains('\u{8}'), "{svg}");
        assert!(svg.contains("<title>note \u{fffd}with\u{fffd} controls</title>"));
    }

    #[test]
    fn numbers_are_compact() {
        for (v, text) in [(10.0, "10"), (10.50, "10.5"), (0.0, "0"), (-3.25, "-3.25")] {
            let mut out = String::new();
            num(&mut out, v);
            assert_eq!(out, text);
        }
    }

    #[test]
    fn all_primitives_render() {
        let mut s = Scene::new(10.0, 10.0);
        s.push(Primitive::Rect { x: 0.0, y: 0.0, w: 1.0, h: 1.0, fill: GLYPH_INK }, "a");
        s.push(
            Primitive::Line { x1: 0.0, y1: 0.0, x2: 1.0, y2: 1.0, stroke: GLYPH_INK, width: 1.0 },
            "b",
        );
        s.push(Primitive::Circle { cx: 0.0, cy: 0.0, r: 1.0, fill: GLYPH_INK }, "c");
        s.push(Primitive::Polygon { points: vec![(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], fill: GLYPH_INK }, "d");
        s.push(Primitive::Text { x: 0.0, y: 0.0, text: "x".into(), size: 8.0, fill: GLYPH_INK }, "e");
        let svg = render(&s);
        for tag in ["<rect", "<line", "<circle", "<polygon", "<text"] {
            assert!(svg.contains(tag), "missing {tag}");
        }
    }
}
