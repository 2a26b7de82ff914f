//! Interactive personal-timeline export — the pastas.no artefact.
//!
//! §Abstract: "We have also used the tool to produce interactive personal
//! health time-lines (for more than 10,000 individuals) on the web."
//! This module renders one patient's history as a **self-contained** HTML
//! page: embedded SVG, a details panel fed by the same details-on-demand
//! strings as the workbench, and zoom buttons — no external assets, so the
//! file can be handed to the patient (the paper's feedback study mailed
//! patients their own trajectories).

use crate::svg;
use crate::timeline::{TimelineOptions, TimelineView};
use crate::viewport::Viewport;
use pastas_ingest::json::write_string;
use pastas_model::{History, HistoryCollection};
use pastas_time::Duration;

/// Options for the personal export.
#[derive(Debug, Clone)]
pub struct PersonalTimelineOptions {
    /// Page width in px.
    pub width: f64,
    /// Timeline height in px.
    pub height: f64,
    /// Page title (the patient never sees internal ids unless you put
    /// them here).
    pub title: String,
}

impl Default for PersonalTimelineOptions {
    fn default() -> PersonalTimelineOptions {
        PersonalTimelineOptions {
            width: 960.0,
            height: 180.0,
            title: "Your health timeline".to_owned(),
        }
    }
}

/// Render one patient's interactive timeline page.
pub fn personal_timeline(history: &History, opts: &PersonalTimelineOptions) -> String {
    let collection = HistoryCollection::from_histories([history.clone()]);
    let (from, to) = match (history.first_time(), history.last_time()) {
        (Some(a), Some(b)) if a < b => (a, b),
        (Some(a), _) => (a, a + Duration::days(30)),
        _ => {
            // literal 2013-01-01 is a valid date
            let d = pastas_time::Date::new(2013, 1, 1).expect("valid");
            (d.at_midnight(), d.add_days(365).at_midnight())
        }
    };
    // A little margin on each side.
    let margin = Duration::days(((to - from).whole_days() / 20).max(7));
    let vp = Viewport::new(from + -margin, to + margin, 1.0, opts.width, opts.height);
    let tl_opts = TimelineOptions { row_labels: false, ..Default::default() };
    let view = TimelineView::new(&collection, tl_opts);
    let (scene, hits) = view.layout(&vp);

    let mut regions = String::new();
    for r in hits.iter() {
        let (x0, y0, x1, y1) = r.bbox;
        regions.push_str(&format!(
            "{{\"x0\":{:.1},\"y0\":{:.1},\"x1\":{:.1},\"y1\":{:.1},\"d\":{}}},",
            x0,
            y0,
            x1,
            y1,
            script_string(&r.details)
        ));
    }
    regions.pop(); // trailing comma

    page(&opts.title, &svg::render(&scene), &regions, scene.width, scene.height)
}

/// A JSON string literal that is also safe inside a `<script>` element:
/// a `<` in it could close the element (`</script>`), so it is escaped too.
fn script_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_string(&mut out, s);
    out.replace('<', "\\u003c")
}

fn page(title: &str, svg_body: &str, regions_json: &str, w: f64, h: f64) -> String {
    format!(
        r#"<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{title}</title>
<style>
body {{ font-family: sans-serif; margin: 1.5rem; color: #222; }}
#wrap {{ overflow-x: auto; border: 1px solid #ddd; }}
#panel {{ min-height: 2.2em; padding: .4em .6em; background: #f7f7f7;
          border: 1px solid #ddd; border-top: none; font-size: .9em; }}
#controls button {{ margin-right: .4em; }}
</style>
</head>
<body>
<h1>{title}</h1>
<div id="controls">
  <button onclick="zoom(1.25)">Zoom in</button>
  <button onclick="zoom(0.8)">Zoom out</button>
  <span id="z"></span>
</div>
<div id="wrap">{svg}</div>
<div id="panel">Hover over the timeline to see details.</div>
<script>
const regions = [{regions}];
let scale = 1;
const wrap = document.getElementById('wrap');
const svgEl = wrap.querySelector('svg');
const panel = document.getElementById('panel');
function zoom(f) {{
  scale = Math.min(16, Math.max(0.25, scale * f));
  svgEl.setAttribute('width', {w} * scale);
  svgEl.setAttribute('height', {h} * scale);
  document.getElementById('z').textContent = Math.round(scale * 100) + '%';
}}
svgEl.addEventListener('mousemove', (ev) => {{
  const r = svgEl.getBoundingClientRect();
  const x = (ev.clientX - r.left) / scale;
  const y = (ev.clientY - r.top) / scale;
  let hit = null;
  for (const g of regions) {{
    if (x >= g.x0 - 2 && x <= g.x1 + 2 && y >= g.y0 - 2 && y <= g.y1 + 2) hit = g;
  }}
  panel.textContent = hit ? hit.d : 'Hover over the timeline to see details.';
}});
</script>
</body>
</html>
"#,
        title = html_escape(title),
        svg = svg_body,
        regions = regions_json,
        w = w,
        h = h,
    )
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_codes::Code;
    use pastas_model::{Entry, Patient, PatientId, Payload, Sex, SourceKind};
    use pastas_time::Date;

    fn history() -> History {
        let mut h = History::new(Patient {
            id: PatientId(77),
            birth_date: Date::new(1950, 1, 1).unwrap(),
            sex: Sex::Female,
        });
        for m in [2u32, 5, 9] {
            h.insert(Entry::event(
                Date::new(2013, m, 10).unwrap().at_midnight(),
                Payload::Diagnosis(Code::icpc("T90")),
                SourceKind::PrimaryCare,
            ));
        }
        h
    }

    #[test]
    fn page_is_self_contained() {
        let page = personal_timeline(&history(), &PersonalTimelineOptions::default());
        assert!(page.starts_with("<!DOCTYPE html>"));
        assert!(page.contains("<svg "));
        assert!(page.contains("const regions ="));
        // The only URL is the SVG xmlns declaration (not a fetch).
        assert_eq!(page.matches("http").count(), 1, "no external references");
        assert!(page.contains("xmlns=\"http://www.w3.org/2000/svg\""));
        assert!(!page.contains("src="), "no external scripts");
    }

    #[test]
    fn details_are_embedded() {
        let page = personal_timeline(&history(), &PersonalTimelineOptions::default());
        assert!(page.contains("diagnosis T90"), "details-on-demand strings embedded");
        assert_eq!(page.matches("\"d\":").count(), 3, "one region per entry");
    }

    #[test]
    fn title_is_escaped() {
        let opts = PersonalTimelineOptions {
            title: "Tom & Jerry <script>".into(),
            ..Default::default()
        };
        let page = personal_timeline(&history(), &opts);
        assert!(page.contains("Tom &amp; Jerry &lt;script&gt;"));
        assert!(!page.contains("Jerry <script>"));
    }

    #[test]
    fn empty_history_still_renders() {
        let h = History::new(Patient {
            id: PatientId(1),
            birth_date: Date::new(1950, 1, 1).unwrap(),
            sex: Sex::Male,
        });
        let page = personal_timeline(&h, &PersonalTimelineOptions::default());
        assert!(page.contains("<svg "));
    }

    #[test]
    fn js_escaping() {
        assert_eq!(script_string("a\"b\\c\nd<e"), "\"a\\\"b\\\\c\\nd\\u003ce\"");
    }
}
