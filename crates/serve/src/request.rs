//! Requests, terminal states and the typed serving errors.

use kconv_core::{ConvError, DataType, FaultRecord};
use kconv_tensor::{ConvProblem, FeatureMaps, FilterSet};

/// Identifies a request within one [`ServeEngine::run`] call, assigned in
/// submission order.
///
/// [`ServeEngine::run`]: crate::ServeEngine::run
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// The numeric precision a request asks for. Routes to the matching
/// kernel family: `F32` through the configured [`Engine`], the narrow
/// dtypes through the paper's special-case fp16/int8 kernels (which
/// require `C = 1`).
///
/// [`Engine`]: kconv_apps::Engine
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DType {
    /// Single precision (every engine).
    #[default]
    F32,
    /// Half precision via the special-case fp16 kernel.
    F16,
    /// 8-bit integer via the special-case int8 kernel.
    I8,
}

impl DType {
    /// Modeled bytes per element on the transfer link.
    pub fn width(self) -> u64 {
        match self {
            DType::F32 => 4,
            DType::F16 => 2,
            DType::I8 => 1,
        }
    }

    /// The kernel data type this precision plans for.
    pub(crate) fn data_type(self) -> DataType {
        match self {
            DType::F32 => DataType::F32,
            DType::F16 => DataType::F16,
            DType::I8 => DataType::I8,
        }
    }
}

/// One convolution request: a problem shape plus its data, stamped with a
/// modeled arrival time and an absolute deadline.
///
/// Times are in *modeled* seconds on the serving clock (the same clock the
/// simulator's [`Timing`](kconv_sim::timing::Timing) model uses), not wall
/// time, so a serving schedule is exactly reproducible.
#[derive(Debug, Clone)]
pub struct ConvRequest {
    /// The convolution to perform.
    pub problem: ConvProblem,
    /// Requested precision.
    pub dtype: DType,
    /// Input feature maps (must match `problem`).
    pub input: FeatureMaps,
    /// Filter bank (must match `problem`).
    pub filters: FilterSet,
    /// Modeled arrival time in seconds.
    pub arrival: f64,
    /// Absolute modeled deadline in seconds ([`f64::INFINITY`] = none).
    pub deadline: f64,
}

impl ConvRequest {
    /// A request arriving at time zero with no deadline, in `F32`.
    pub fn new(problem: ConvProblem, input: FeatureMaps, filters: FilterSet) -> Self {
        ConvRequest {
            problem,
            dtype: DType::F32,
            input,
            filters,
            arrival: 0.0,
            deadline: f64::INFINITY,
        }
    }

    /// Sets the modeled arrival time.
    pub fn at(mut self, arrival: f64) -> Self {
        self.arrival = arrival;
        self
    }

    /// Sets the absolute modeled deadline.
    pub fn with_deadline(mut self, deadline: f64) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets the requested precision.
    pub fn with_dtype(mut self, dtype: DType) -> Self {
        self.dtype = dtype;
        self
    }

    /// Modeled bytes moved host-to-device for this request (input +
    /// filters at the dtype's width).
    pub fn h2d_bytes(&self) -> u64 {
        let elems = (self.input.as_slice().len() + self.filters.as_slice().len()) as u64;
        elems * self.dtype.width()
    }

    /// Modeled bytes moved device-to-host (the f32 output maps).
    pub fn d2h_bytes(&self) -> u64 {
        (self.problem.filters * self.problem.out_height() * self.problem.out_width()) as u64 * 4
    }
}

/// Typed serving failures — every non-`Completed` terminal state carries
/// one.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// Admission control shed the request: the queue was at its
    /// high-water mark when it arrived.
    QueueFull {
        /// The configured high-water mark.
        capacity: usize,
    },
    /// The request is self-inconsistent (data/shape mismatch, or a dtype
    /// the problem cannot route to).
    Malformed(String),
    /// The request could not complete within its deadline budget.
    DeadlineExceeded {
        /// The absolute deadline.
        deadline: f64,
        /// The modeled time at which the budget was found exhausted.
        at: f64,
    },
    /// Every engine in the chain failed (after its retry budget).
    FailedAfterRetries {
        /// Total kernel attempts made.
        attempts: u32,
        /// The last engine's error.
        last: ConvError,
    },
    /// A fatal host-side error aborted the request immediately.
    Fatal(ConvError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "queue at high-water mark ({capacity}), request shed")
            }
            ServeError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            ServeError::DeadlineExceeded { deadline, at } => {
                write!(f, "deadline {deadline:.6}s exceeded at {at:.6}s")
            }
            ServeError::FailedAfterRetries { attempts, last } => {
                write!(f, "failed after {attempts} attempts: {last}")
            }
            ServeError::Fatal(e) => write!(f, "fatal: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A successfully served request.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The output feature maps.
    pub output: FeatureMaps,
    /// [`Convolution::name`](kconv_core::Convolution::name) of the engine
    /// that produced the output.
    pub engine: String,
    /// Modeled completion time (output landed on the host).
    pub finish: f64,
    /// Modeled latency: `finish - arrival`.
    pub latency: f64,
    /// Same-engine retries that preceded success.
    pub retries: u32,
    /// Engines skipped because their circuit breaker was open when this
    /// request reached them.
    pub breaker_skips: u32,
    /// Every absorbed failure on the way to this output (resolution
    /// rejections, faulted attempts, abandoned engines), in order.
    pub faults: Vec<FaultRecord>,
}

impl Completion {
    /// Whether this request was served cleanly: first attempt, first
    /// engine, nothing absorbed, no breaker detour. Clean completions are
    /// bit-identical whether chaos was injected around them or not — a
    /// breaker skip disqualifies because the output then comes from a
    /// different (fallback) engine than a chaos-free run would use.
    pub fn clean(&self) -> bool {
        self.retries == 0 && self.breaker_skips == 0 && self.faults.is_empty()
    }
}

/// The exactly-one terminal state every submitted request reaches.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Served: output produced and "transferred back" before any
    /// deadline.
    Completed(Completion),
    /// Never admitted (shed by admission control or malformed).
    Rejected(ServeError),
    /// Admitted but the deadline budget ran out
    /// ([`ServeError::DeadlineExceeded`]).
    DeadlineExceeded(ServeError),
    /// Admitted but every engine failed
    /// ([`ServeError::FailedAfterRetries`] or [`ServeError::Fatal`]).
    Failed(ServeError),
}

impl Outcome {
    /// Short label for reports: `completed`, `rejected`,
    /// `deadline-exceeded` or `failed`.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Completed(_) => "completed",
            Outcome::Rejected(_) => "rejected",
            Outcome::DeadlineExceeded(_) => "deadline-exceeded",
            Outcome::Failed(_) => "failed",
        }
    }

    /// The completion when this outcome is [`Outcome::Completed`].
    pub fn completion(&self) -> Option<&Completion> {
        match self {
            Outcome::Completed(c) => Some(c),
            _ => None,
        }
    }
}

/// The terminal record for one request: every [`ServeEngine::run`] returns
/// exactly one per submitted request, in submission order.
///
/// [`ServeEngine::run`]: crate::ServeEngine::run
#[derive(Debug, Clone)]
pub struct Resolution {
    /// Which request.
    pub id: RequestId,
    /// How it ended.
    pub outcome: Outcome,
}

#[cfg(test)]
mod tests {
    use super::*;
    use kconv_tensor::{random_filters, random_maps};

    #[test]
    fn request_builders_and_byte_model() {
        let p = ConvProblem::special(8, 2, 3);
        let req = ConvRequest::new(p, random_maps(1, 8, 8, 1), random_filters(2, 1, 3, 2))
            .at(1.5)
            .with_deadline(2.0)
            .with_dtype(DType::F16);
        assert_eq!(req.arrival, 1.5);
        assert_eq!(req.deadline, 2.0);
        assert_eq!(req.h2d_bytes(), (8 * 8 + 2 * 9) as u64 * 2);
        assert_eq!(req.d2h_bytes(), (2 * 6 * 6) as u64 * 4);
    }

    #[test]
    fn errors_display_and_outcome_labels() {
        let e = ServeError::QueueFull { capacity: 4 };
        assert!(e.to_string().contains("high-water"));
        assert_eq!(Outcome::Rejected(e).label(), "rejected");
        let e = ServeError::DeadlineExceeded {
            deadline: 0.5,
            at: 0.7,
        };
        assert!(e.to_string().contains("0.5"));
        assert_eq!(Outcome::DeadlineExceeded(e).label(), "deadline-exceeded");
        let e = ServeError::Malformed("shape".into());
        assert!(e.to_string().contains("shape"));
        let e = ServeError::FailedAfterRetries {
            attempts: 3,
            last: ConvError::Config("x".into()),
        };
        assert!(e.to_string().contains("3 attempts"));
        assert_eq!(Outcome::Failed(e).label(), "failed");
    }
}
