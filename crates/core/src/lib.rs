//! # pastas-core — the PAsTAs workbench
//!
//! A from-scratch Rust reproduction of *"Visual exploration and cohort
//! identification of acute patient histories aggregated from heterogeneous
//! sources"* (Sætre, Nytrø, Nordbø, Steinsbekk — ICDE 2016). This crate is
//! the public API a downstream user adopts; the subsystems live in their
//! own crates and are re-exported here.
//!
//! ```
//! use pastas_core::prelude::*;
//!
//! // Generate a small synthetic cohort (the paper's full set is 168,000).
//! let collection = generate_collection(SynthConfig::with_patients(200), 7);
//! let mut wb = Workbench::from_collection(collection);
//!
//! // Fig. 4: select the diabetes cohort by predefined characteristics.
//! let cohort = wb.select(&QueryBuilder::new().has_code("T90").unwrap().build());
//! assert!(cohort.collection().len() < 200);
//!
//! // Align on the first diabetes code and render the Fig. 1 view.
//! let mut cohort = cohort;
//! cohort.align_on_code("T90").unwrap();
//! let svg = cohort.render_svg(900.0, 500.0);
//! assert!(svg.contains("<svg"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// DESIGN.md §9: no unwrap outside tests, and each exception is an
// `expect` attribute with a reason, which fails once it goes stale.
#![deny(clippy::unwrap_used, clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod cohorts;
pub mod error;
pub mod export;
pub mod exposure;
pub mod indicators;
pub mod recognition;
pub mod session;
pub mod workbench;

pub use cohorts::{CohortHandle, CohortLookup, CohortRegistry, RegistryConfig, MEMO_TOP_K};
pub use error::CoreError;
pub use recognition::{simulate_study, RecognitionModel, StudyOutcome};
pub use session::{Session, ViewCommand};
pub use workbench::{IngestStats, ViewState, Workbench};

/// Convenient re-exports of the whole stack.
pub mod prelude {
    pub use crate::error::CoreError;
    pub use crate::export::{from_json, to_csv, to_json};
    pub use crate::exposure::{medication_exposures, with_exposures};
    pub use crate::indicators::{indicators, IndicatorPanel};
    pub use crate::recognition::{simulate_study, RecognitionModel, StudyOutcome};
    pub use crate::session::{Session, ViewCommand};
    pub use crate::workbench::{IngestStats, Workbench};
    pub use pastas_codes::{Code, CodeSystem};
    pub use pastas_ingest::{
        aggregate, parse_delta, DeltaBatch, DeltaFormat, QualityReport, SourceTexts,
    };
    pub use pastas_model::{
        CodeId, Entry, EntryRef, EntryView, EpisodeKind, History, HistoryCollection,
        MeasurementKind, MemoryFootprint, Patient, PatientId, Payload, PayloadRef, Sex,
        SourceKind,
    };
    pub use pastas_query::{
        align_on, sort_histories, EntryPredicate, GapBound, HistoryQuery, QueryBuilder, SortKey,
        TemporalPattern,
    };
    pub use pastas_synth::{generate_collection, generate_population, SynthConfig};
    pub use pastas_time::{Date, DateTime, Duration};
    pub use pastas_viz::{AxisMode, TimelineOptions, TimelineView, Viewport};
}
