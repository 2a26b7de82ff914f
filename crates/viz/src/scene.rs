//! A retained-mode scene graph of drawing primitives.
//!
//! The timeline layout produces a [`Scene`]; renderers (SVG, ASCII, HTML)
//! and the hit-tester consume it. Keeping the scene explicit is what makes
//! the E1/E8 measurements meaningful: layout cost and render cost are
//! separated.

use crate::color::Color;
use std::borrow::Cow;

/// One drawing primitive. Coordinates are in device pixels, y down.
#[derive(Debug, Clone, PartialEq)]
pub enum Primitive {
    /// Filled rectangle.
    Rect {
        /// Left edge.
        x: f64,
        /// Top edge.
        y: f64,
        /// Width.
        w: f64,
        /// Height.
        h: f64,
        /// Fill color.
        fill: Color,
    },
    /// Line segment.
    Line {
        /// Start x.
        x1: f64,
        /// Start y.
        y1: f64,
        /// End x.
        x2: f64,
        /// End y.
        y2: f64,
        /// Stroke color.
        stroke: Color,
        /// Stroke width.
        width: f64,
    },
    /// Filled circle.
    Circle {
        /// Centre x.
        cx: f64,
        /// Centre y.
        cy: f64,
        /// Radius.
        r: f64,
        /// Fill color.
        fill: Color,
    },
    /// Filled polygon (used for triangles and arrowheads).
    Polygon {
        /// Vertices.
        points: Vec<(f64, f64)>,
        /// Fill color.
        fill: Color,
    },
    /// Text anchored at the left baseline.
    Text {
        /// Anchor x.
        x: f64,
        /// Baseline y.
        y: f64,
        /// Content.
        text: String,
        /// Font size in px.
        size: f64,
        /// Ink color.
        fill: Color,
    },
}

impl Primitive {
    /// Axis-aligned bounding box `(x0, y0, x1, y1)`.
    pub fn bbox(&self) -> (f64, f64, f64, f64) {
        match self {
            Primitive::Rect { x, y, w, h, .. } => (*x, *y, x + w, y + h),
            Primitive::Line { x1, y1, x2, y2, .. } => {
                (x1.min(*x2), y1.min(*y2), x1.max(*x2), y1.max(*y2))
            }
            Primitive::Circle { cx, cy, r, .. } => (cx - r, cy - r, cx + r, cy + r),
            Primitive::Polygon { points, .. } => points.iter().fold(
                (f64::INFINITY, f64::INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY),
                |(x0, y0, x1, y1), &(x, y)| (x0.min(x), y0.min(y), x1.max(x), y1.max(y)),
            ),
            Primitive::Text { x, y, text, size, .. } => {
                // Monospace-ish estimate: 0.6 em advance per char.
                (*x, y - size, x + 0.6 * size * text.chars().count() as f64, *y)
            }
        }
    }
}

/// An element: a primitive plus semantic annotations for interaction.
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    /// The drawing primitive.
    pub primitive: Primitive,
    /// Presentation-ontology class (`viz:Glyph/square`, …), used as the
    /// SVG class attribute. Borrowed for the fixed classes the layouts
    /// draw, so a drawn element allocates for its tooltip alone.
    pub class: Cow<'static, str>,
    /// Details-on-demand text (SVG `<title>`, HTML tooltip).
    pub tooltip: Option<String>,
}

/// A scene: elements in paint order plus the canvas size.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scene {
    /// Canvas width, px.
    pub width: f64,
    /// Canvas height, px.
    pub height: f64,
    /// Elements in paint order (later paints over earlier).
    pub elements: Vec<Element>,
}

impl Scene {
    /// An empty scene of the given size.
    pub fn new(width: f64, height: f64) -> Scene {
        Scene { width, height, elements: Vec::new() }
    }

    /// Push a bare primitive.
    pub fn push(&mut self, primitive: Primitive, class: impl Into<Cow<'static, str>>) {
        self.elements.push(Element { primitive, class: class.into(), tooltip: None });
    }

    /// Push a primitive with a details-on-demand tooltip.
    pub fn push_with_tooltip(
        &mut self,
        primitive: Primitive,
        class: impl Into<Cow<'static, str>>,
        tooltip: String,
    ) {
        self.elements.push(Element { primitive, class: class.into(), tooltip: Some(tooltip) });
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True if nothing has been drawn.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Count of elements by class prefix (used by tests and the legend).
    pub fn count_class_prefix(&self, prefix: &str) -> usize {
        self.elements.iter().filter(|e| e.class.starts_with(prefix)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::GLYPH_INK;

    #[test]
    fn bboxes() {
        let r = Primitive::Rect { x: 1.0, y: 2.0, w: 3.0, h: 4.0, fill: GLYPH_INK };
        assert_eq!(r.bbox(), (1.0, 2.0, 4.0, 6.0));
        let l = Primitive::Line { x1: 5.0, y1: 1.0, x2: 2.0, y2: 3.0, stroke: GLYPH_INK, width: 1.0 };
        assert_eq!(l.bbox(), (2.0, 1.0, 5.0, 3.0));
        let c = Primitive::Circle { cx: 0.0, cy: 0.0, r: 2.0, fill: GLYPH_INK };
        assert_eq!(c.bbox(), (-2.0, -2.0, 2.0, 2.0));
        let p = Primitive::Polygon { points: vec![(0.0, 0.0), (2.0, 1.0), (1.0, 3.0)], fill: GLYPH_INK };
        assert_eq!(p.bbox(), (0.0, 0.0, 2.0, 3.0));
    }

    #[test]
    fn scene_accumulates_in_order() {
        let mut s = Scene::new(100.0, 50.0);
        s.push(Primitive::Circle { cx: 1.0, cy: 1.0, r: 1.0, fill: GLYPH_INK }, "viz:Glyph/circle");
        s.push_with_tooltip(
            Primitive::Circle { cx: 2.0, cy: 2.0, r: 1.0, fill: GLYPH_INK },
            "viz:Glyph/circle",
            "details".into(),
        );
        assert_eq!(s.len(), 2);
        assert_eq!(s.elements[1].tooltip.as_deref(), Some("details"));
        assert_eq!(s.count_class_prefix("viz:Glyph"), 2);
        assert_eq!(s.count_class_prefix("viz:Band"), 0);
    }
}
