//! Message payloads, envelopes, and reduction operators.

use crate::bytes::Bytes;
use crate::{Rank, Tag};

/// The body of a message.
///
/// Profiling the communication *topology* of an application requires sizes
/// and partners, not contents, so the runtime supports a size-only form used
/// by the application kernels for cheap large-scale runs alongside a real
/// data form used wherever correctness of the transported bytes matters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// A message of the given length whose contents are immaterial.
    Synthetic(usize),
    /// A message carrying real bytes (cheaply cloneable).
    Data(Bytes),
}

impl Payload {
    /// A size-only payload of `len` bytes.
    #[inline]
    pub fn synthetic(len: usize) -> Self {
        Payload::Synthetic(len)
    }

    /// A payload carrying `values` encoded as little-endian `f64`s.
    pub fn from_f64s(values: &[f64]) -> Self {
        let mut buf = Vec::with_capacity(values.len() * 8);
        for v in values {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        Payload::Data(Bytes::from(buf))
    }

    /// Decodes the payload as little-endian `f64`s.
    ///
    /// Returns `None` for synthetic payloads or lengths that are not a
    /// multiple of 8.
    pub fn to_f64s(&self) -> Option<Vec<f64>> {
        match self {
            Payload::Synthetic(_) => None,
            Payload::Data(b) => {
                if b.len() % 8 != 0 {
                    return None;
                }
                Some(
                    b.chunks_exact(8)
                        .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
                        .collect(),
                )
            }
        }
    }

    /// The message size in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Payload::Synthetic(n) => *n,
            Payload::Data(b) => b.len(),
        }
    }

    /// True if the message carries zero bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Elementwise reduction operators over `f64` lanes, mirroring the MPI
/// predefined operations the studied applications use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
    /// Elementwise product.
    Prod,
}

impl ReduceOp {
    /// Applies the operator to a pair of lanes.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Prod => a * b,
        }
    }

    /// Combines two payloads under this operator.
    ///
    /// * Two synthetic payloads of equal length combine to a synthetic
    ///   payload of that length (sizes flow through the reduction tree just
    ///   as data would).
    /// * Two data payloads are interpreted as `f64` lanes and combined
    ///   elementwise.
    ///
    /// Mixing forms or mismatching lengths is a collective-argument error.
    pub fn combine(self, a: &Payload, b: &Payload) -> crate::Result<Payload> {
        use crate::MpiError;
        match (a, b) {
            (Payload::Synthetic(x), Payload::Synthetic(y)) => {
                if x != y {
                    return Err(MpiError::CollectiveMismatch(format!(
                        "reduce payload lengths differ: {x} vs {y}"
                    )));
                }
                Ok(Payload::Synthetic(*x))
            }
            (Payload::Data(_), Payload::Data(_)) => {
                let (xa, xb) = (a.to_f64s(), b.to_f64s());
                match (xa, xb) {
                    (Some(va), Some(vb)) if va.len() == vb.len() => {
                        let out: Vec<f64> = va
                            .iter()
                            .zip(&vb)
                            .map(|(&x, &y)| self.apply(x, y))
                            .collect();
                        Ok(Payload::from_f64s(&out))
                    }
                    _ => Err(MpiError::CollectiveMismatch(
                        "reduce data payloads must be equal-length f64 vectors".into(),
                    )),
                }
            }
            _ => Err(MpiError::CollectiveMismatch(
                "cannot mix synthetic and data payloads in a reduction".into(),
            )),
        }
    }
}

/// A message in flight: payload plus routing metadata.
#[derive(Debug, Clone)]
pub(crate) struct Envelope {
    /// Sending rank.
    pub src: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Message body.
    pub payload: Payload,
    /// What the envelope carries beside its payload, if anything.
    pub stamp: Option<Stamp>,
}

impl Envelope {
    /// True for the replay's stand-in for a send its first pass lacked.
    pub(crate) fn is_stand_in(&self) -> bool {
        matches!(self.stamp, Some(Stamp::StandIn))
    }
}

/// An envelope's mark beside its payload.
#[derive(Debug, Clone)]
pub(crate) enum Stamp {
    /// The causal stamp of the originating send span, when tracing is on.
    Span(hfast_trace::SpanContext),
    /// The replay's first pass had no send for the receive that got this
    /// envelope: it stands in for one, and a reduction takes it as its
    /// identity.
    StandIn,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_lengths() {
        assert_eq!(Payload::synthetic(1024).len(), 1024);
        assert_eq!(Payload::Data(Bytes::from(vec![1u8, 2, 3])).len(), 3);
        assert!(Payload::synthetic(0).is_empty());
        assert!(!Payload::synthetic(1).is_empty());
    }

    #[test]
    fn f64_roundtrip() {
        let vals = [1.5, -2.25, 0.0, 1e300];
        let p = Payload::from_f64s(&vals);
        assert_eq!(p.len(), 32);
        assert_eq!(p.to_f64s().unwrap(), vals);
    }

    #[test]
    fn synthetic_has_no_f64_view() {
        assert!(Payload::synthetic(16).to_f64s().is_none());
    }

    #[test]
    fn reduce_ops_apply() {
        assert_eq!(ReduceOp::Sum.apply(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Max.apply(2.0, 3.0), 3.0);
        assert_eq!(ReduceOp::Min.apply(2.0, 3.0), 2.0);
        assert_eq!(ReduceOp::Prod.apply(2.0, 3.0), 6.0);
    }

    #[test]
    fn combine_synthetic_preserves_len() {
        let p = ReduceOp::Sum
            .combine(&Payload::synthetic(64), &Payload::synthetic(64))
            .unwrap();
        assert_eq!(p, Payload::Synthetic(64));
    }

    #[test]
    fn combine_synthetic_mismatch_errors() {
        assert!(ReduceOp::Sum
            .combine(&Payload::synthetic(64), &Payload::synthetic(32))
            .is_err());
    }

    #[test]
    fn combine_data_elementwise() {
        let a = Payload::from_f64s(&[1.0, 5.0]);
        let b = Payload::from_f64s(&[3.0, 2.0]);
        let sum = ReduceOp::Sum.combine(&a, &b).unwrap();
        assert_eq!(sum.to_f64s().unwrap(), vec![4.0, 7.0]);
        let max = ReduceOp::Max.combine(&a, &b).unwrap();
        assert_eq!(max.to_f64s().unwrap(), vec![3.0, 5.0]);
    }

    #[test]
    fn combine_mixed_forms_errors() {
        let a = Payload::from_f64s(&[1.0]);
        let b = Payload::synthetic(8);
        assert!(ReduceOp::Sum.combine(&a, &b).is_err());
    }
}
