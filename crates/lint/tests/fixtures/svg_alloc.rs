// lint-fixture-path: crates/viz/src/svg.rs
//! Fixture: the renderer arm — no String is built in a per-element loop.

fn render(scene: &Scene, out: &mut String) {
    out.push_str(&format!("<svg {}>", scene.width)); // ok: once, outside a loop
    for el in &scene.elements {
        let class = el.class.to_owned(); // finding
        let title = format!("<title>{}</title>", el.tip); // finding
        let pts: Vec<String> = el.points.iter().map(|p| p.to_string()).collect(); // two
        let mut tail = String::new(); // finding
        let _ = write!(out, "{class}{title}{}{tail}", pts.join(" ")); // join: finding
    }
}
