//! The PAsTAs timeline visualization, headless.
//!
//! Fig. 1 of the paper: "Each gray bar … constitutes a patient history,
//! with small rectangles and arrows indicating diagnoses and blood
//! pressure measurements … The colors in the visualization show different
//! classes of medication. On the left-hand side and bottom of the window,
//! there are dynamic displays showing detailed information about the
//! history content under the mouse cursor." Plus §IV.B's two axis modes
//! and the two zoom sliders.
//!
//! Everything a GUI toolkit would do is modelled as data + pure functions,
//! so the pipeline is testable and its latency benchmarkable against
//! Shneiderman's 0.1 s budget (E8):
//!
//! * [`color`] — the categorical palette (ATC groups, bands, glyphs);
//! * [`scene`] — a retained-mode scene graph of drawing primitives;
//! * [`viewport`] — pan + the dual zoom sliders;
//! * [`axis`] — calendar and aligned (months-from-anchor) axes with tick
//!   generation;
//! * [`timeline`] — the Fig. 1 layout: rows, bands, glyphs, labels;
//! * [`hit`] — hit-testing and details-on-demand;
//! * [`svg`] / [`ascii`] / [`html`] — renderers (static SVG, terminal
//!   preview, and the pastas.no-style interactive personal timeline).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ascii;
pub mod axis;
pub mod color;
pub mod graphview;
pub mod histogram;
pub mod hit;
pub mod legend;
pub mod eventchart;
pub mod html;
pub mod overview;
pub mod scene;
pub mod svg;
pub mod timeline;
pub mod transition;
pub mod viewport;

pub use axis::AxisMode;
pub use scene::{Primitive, Scene};
pub use timeline::{TimelineOptions, TimelineView};
pub use viewport::Viewport;

#[cfg(test)]
mod proptests;
