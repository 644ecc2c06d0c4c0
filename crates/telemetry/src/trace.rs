//! Structured trace events and the per-component log that buffers them.

use heracles_sim::csv::CsvRow;
use heracles_sim::{SimDuration, SimTime};
use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// One typed field value on a [`TraceEvent`].
///
/// Floats are rendered with a fixed six decimals everywhere so the same run
/// always serializes to the same bytes; non-finite floats (which no emitter
/// should produce) render as JSON `null` rather than corrupting the
/// document.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceValue {
    /// An unsigned integer (ids, counts).
    U64(u64),
    /// A signed integer (deltas).
    I64(i64),
    /// A float, serialized with six decimals.
    F64(f64),
    /// A string (names, labels), JSON-escaped on output.  Static labels
    /// are borrowed, so recording them allocates nothing.
    Str(Cow<'static, str>),
    /// A boolean.
    Bool(bool),
}

impl TraceValue {
    /// Renders the value as a JSON literal.
    pub fn to_json(&self) -> String {
        match self {
            TraceValue::U64(v) => format!("{v}"),
            TraceValue::I64(v) => format!("{v}"),
            TraceValue::F64(v) if v.is_finite() => format!("{v:.6}"),
            TraceValue::F64(_) => "null".into(),
            TraceValue::Str(s) => format!("\"{}\"", json_escape(s)),
            TraceValue::Bool(b) => format!("{b}"),
        }
    }

    /// Renders the value bare (no quotes), for the CSV sink's `k=v` cells.
    pub fn to_bare(&self) -> String {
        match self {
            TraceValue::Str(s) => s.to_string(),
            other => other.to_json(),
        }
    }
}

impl From<&str> for TraceValue {
    fn from(s: &str) -> Self {
        TraceValue::Str(Cow::Owned(s.to_string()))
    }
}

/// Escapes a string for inclusion inside a JSON string literal: quote,
/// backslash and control characters only (the emitters produce ASCII).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One named field of a [`TraceEvent`].
type Field = (&'static str, TraceValue);

/// Fields an event stores inline before it spills to the heap.  Most events
/// the fleet records per step (`unplaced`, `wake`, `cap`, the controller's
/// `network`) have at most this many, so recording them allocates nothing.
const INLINE_FIELDS: usize = 4;

/// The filler of unused inline slots, never exposed as a field: emitters
/// never use an empty key.
const VACANT: Field = ("", TraceValue::Bool(false));

/// An event's fields in emission order: the first [`INLINE_FIELDS`] inline,
/// the rest in `spilled`.  A spilled event's heap block holds only the
/// fields past the inline ones, so an event of any width is no larger than
/// an event whose fields all live in one `Vec` (64 bytes plus a block of
/// four, eight, ... fields).
#[derive(Clone)]
struct Fields {
    slots: [Field; INLINE_FIELDS],
    spilled: Vec<Field>,
}

impl Fields {
    #[inline]
    fn new() -> Self {
        Fields { slots: [VACANT; INLINE_FIELDS], spilled: Vec::new() }
    }

    #[inline]
    fn iter(&self) -> impl Iterator<Item = &Field> {
        let inline = self.slots.iter().position(|(key, _)| key.is_empty());
        self.slots[..inline.unwrap_or(INLINE_FIELDS)].iter().chain(&self.spilled)
    }

    #[inline]
    fn push(&mut self, field: Field) {
        debug_assert!(!field.0.is_empty(), "trace field keys are never empty");
        match self.slots.iter_mut().find(|(key, _)| key.is_empty()) {
            Some(slot) => *slot = field,
            None => self.spilled.push(field),
        }
    }
}

impl PartialEq for Fields {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Fields {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One decision record: where and when (in *simulated* time) a subsystem
/// chose something, plus the typed fields that explain the choice.
///
/// Events deliberately cannot carry wall-clock readings: the only timestamp
/// is [`SimTime`], so a trace is a pure function of the seed.
///
/// An event with at most four fields, all numbers, booleans or `'static`
/// strings, lives entirely inline: building, recording and evicting it
/// touches no allocator.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    time: SimTime,
    scope: &'static str,
    kind: &'static str,
    fields: Fields,
}

/// The builders are `#[inline]` so that, across crates, a chain of them
/// compiles to stores into one event rather than a copy of it per call.
impl TraceEvent {
    /// Starts an event at `time` from subsystem `scope` with decision `kind`.
    #[inline]
    pub fn new(time: SimTime, scope: &'static str, kind: &'static str) -> Self {
        TraceEvent { time, scope, kind, fields: Fields::new() }
    }

    /// Appends an unsigned-integer field.
    #[inline]
    pub fn u64(mut self, key: &'static str, value: u64) -> Self {
        self.fields.push((key, TraceValue::U64(value)));
        self
    }

    /// Appends a signed-integer field.
    #[inline]
    pub fn i64(mut self, key: &'static str, value: i64) -> Self {
        self.fields.push((key, TraceValue::I64(value)));
        self
    }

    /// Appends a float field.
    #[inline]
    pub fn f64(mut self, key: &'static str, value: f64) -> Self {
        self.fields.push((key, TraceValue::F64(value)));
        self
    }

    /// Appends a string field: a `&'static str` is borrowed, a `String`
    /// is moved in.
    #[inline]
    pub fn str(mut self, key: &'static str, value: impl Into<Cow<'static, str>>) -> Self {
        self.fields.push((key, TraceValue::Str(value.into())));
        self
    }

    /// Appends a boolean field.
    #[inline]
    pub fn bool(mut self, key: &'static str, value: bool) -> Self {
        self.fields.push((key, TraceValue::Bool(value)));
        self
    }

    /// Shifts the event's timestamp forward by `offset`: rebases a
    /// subsystem's local clock (a leaf controller commissioned mid-run
    /// starts at its own zero) onto the global simulation clock.
    #[inline]
    pub fn shifted(mut self, offset: SimDuration) -> Self {
        self.time += offset;
        self
    }

    /// The simulated time of the decision.
    #[inline]
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// The emitting subsystem (`"core"`, `"traffic"`, `"placement"`, ...).
    pub fn scope(&self) -> &'static str {
        self.scope
    }

    /// The decision kind within the scope.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// The typed fields, in emission order.
    pub fn fields(&self) -> impl Iterator<Item = &(&'static str, TraceValue)> {
        self.fields.iter()
    }

    /// The value of the named field, if present.
    pub fn field(&self, key: &str) -> Option<&TraceValue> {
        self.fields().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Renders the event as one JSON object (no trailing newline): the fixed
    /// `t`/`scope`/`kind` prefix followed by the fields in emission order.
    pub fn jsonl(&self) -> String {
        let mut out = String::with_capacity(128);
        let _ = write!(
            out,
            "{{\"t\":{:.6},\"scope\":\"{}\",\"kind\":\"{}\"",
            self.time.as_secs_f64(),
            self.scope,
            self.kind
        );
        for (key, value) in self.fields() {
            let _ = write!(out, ",\"{}\":{}", json_escape(key), value.to_json());
        }
        out.push('}');
        out
    }

    /// Appends the event as one CSV row (`time_s,scope,kind,fields`) where
    /// `fields` is a `k=v;k=v` cell, escaped through the shared CSV rules.
    pub fn push_csv_row(&self, out: &mut String) {
        let mut cell = String::new();
        for (i, (key, value)) in self.fields().enumerate() {
            if i > 0 {
                cell.push(';');
            }
            let _ = write!(cell, "{key}={}", value.to_bare());
        }
        CsvRow::new(out)
            .f64(self.time.as_secs_f64(), 6)
            .str(self.scope)
            .str(self.kind)
            .str(&cell)
            .end();
    }
}

/// The buffer a traced component appends its decisions to.
///
/// Components store an `Option<TraceLog>` and only construct events when it
/// is `Some`, so an untraced run never allocates.  The owner of the
/// [`FlightRecorder`](crate::FlightRecorder) drains component logs in a
/// deterministic order once per step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
}

impl TraceLog {
    /// An empty log.
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// Appends one event.
    pub fn emit(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Removes and returns all buffered events in emission order.  The log
    /// keeps its own buffer, so a component drained every step (on another
    /// thread than the one that drains it) stops allocating once the buffer
    /// has grown, and the returned vector is allocated and later freed by
    /// the draining thread.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        let mut drained = Vec::with_capacity(self.events.len());
        drained.append(&mut self.events);
        drained
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event() -> TraceEvent {
        TraceEvent::new(SimTime::from_secs(15), "core", "be_state")
            .str("from", "disabled")
            .str("to", "enabled")
            .f64("slack", 0.4)
            .u64("server", 3)
            .bool("growth", true)
    }

    #[test]
    fn jsonl_has_fixed_prefix_and_emission_order() {
        assert_eq!(
            event().jsonl(),
            "{\"t\":15.000000,\"scope\":\"core\",\"kind\":\"be_state\",\
             \"from\":\"disabled\",\"to\":\"enabled\",\"slack\":0.400000,\
             \"server\":3,\"growth\":true}"
        );
    }

    #[test]
    fn spilled_fields_follow_the_inline_ones() {
        const KEYS: [&str; 9] = ["a", "b", "c", "d", "e", "f", "g", "h", "i"];
        let wide = KEYS.iter().zip(0..).fold(event(), |e, (k, v)| e.u64(k, v));
        let keys: Vec<&str> = wide.fields().map(|(k, _)| *k).collect();
        assert_eq!(keys[..5], ["from", "to", "slack", "server", "growth"]);
        assert_eq!(keys[5..], KEYS);
        assert_eq!(wide.field("i"), Some(&TraceValue::U64(8)));
        assert_eq!(wide.clone(), wide);
    }

    /// An event is no larger than a 64-byte header holding its fields in a
    /// heap block of four (a `Vec`'s first block), and a spilled event's
    /// block holds only the fields past the inline ones.
    #[test]
    fn an_event_is_no_larger_than_a_header_and_four_fields() {
        let header_and_block = 64 + INLINE_FIELDS * std::mem::size_of::<Field>();
        assert!(std::mem::size_of::<TraceEvent>() <= header_and_block);
    }

    #[test]
    fn strings_are_json_escaped() {
        let ev = TraceEvent::new(SimTime::ZERO, "test", "esc").str("s", "a\"b\\c\nd");
        assert!(ev.jsonl().contains("\"s\":\"a\\\"b\\\\c\\nd\""));
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let ev = TraceEvent::new(SimTime::ZERO, "test", "nan").f64("v", f64::NAN);
        assert!(ev.jsonl().contains("\"v\":null"));
    }

    #[test]
    fn field_lookup_and_accessors_work() {
        let ev = event();
        assert_eq!(ev.scope(), "core");
        assert_eq!(ev.kind(), "be_state");
        assert_eq!(ev.field("server"), Some(&TraceValue::U64(3)));
        assert_eq!(ev.field("missing"), None);
    }

    #[test]
    fn csv_row_escapes_the_field_cell() {
        let mut out = String::new();
        TraceEvent::new(SimTime::from_secs(1), "a", "b").str("k", "x,y").push_csv_row(&mut out);
        assert_eq!(out, "1.000000,a,b,\"k=x,y\"\n");
    }

    #[test]
    fn log_buffers_and_drains_in_order() {
        let mut log = TraceLog::new();
        assert!(log.is_empty());
        log.emit(event());
        log.emit(TraceEvent::new(SimTime::ZERO, "x", "y"));
        assert_eq!(log.len(), 2);
        let drained = log.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].kind(), "be_state");
        assert!(log.is_empty());
    }
}
