//! The event model: what one recorded observation looks like.

use crate::log::Key;
use std::fmt;

/// The kind of a recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`ph: "B"` in Chrome terms).
    SpanBegin,
    /// A span closed (`ph: "E"`).
    SpanEnd,
    /// A counter sample (`ph: "C"`).
    Counter,
    /// An instantaneous marker (`ph: "i"`).
    Instant,
}

impl EventKind {
    /// The Chrome `trace_event` phase letter.
    pub fn phase(self) -> &'static str {
        match self {
            EventKind::SpanBegin => "B",
            EventKind::SpanEnd => "E",
            EventKind::Counter => "C",
            EventKind::Instant => "i",
        }
    }

    /// Parses a Chrome phase letter.
    pub fn from_phase(ph: &str) -> Option<Self> {
        match ph {
            "B" => Some(EventKind::SpanBegin),
            "E" => Some(EventKind::SpanEnd),
            "C" => Some(EventKind::Counter),
            "i" | "I" => Some(EventKind::Instant),
            _ => None,
        }
    }
}

/// An argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text: borrowed when it is a literal, so recording it allocates
    /// nothing.
    Str(Key),
}

impl Value {
    /// Numeric view (integers widen to `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::I64(v) => Some(*v as f64),
            Value::U64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I64(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Str(Key::Borrowed(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Key::Owned(v))
    }
}

/// One recorded observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Subsystem category (`"pool"`, `"gpu"`, `"runner"`, `"study"`).
    pub cat: String,
    /// Event name (span name, counter name).
    pub name: String,
    /// Nanoseconds since the collector's epoch.
    pub ts_ns: u128,
    /// Stable small integer identifying the recording thread.
    pub tid: u64,
    /// Attached arguments (span-end stats, counter value).
    pub args: Vec<(String, Value)>,
}

impl Event {
    /// Looks up an argument by key.
    pub fn arg(&self, key: &str) -> Option<&Value> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}
