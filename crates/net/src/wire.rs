//! The value codec under the frame table: the [`Wire`] trait, the
//! payload [`Cursor`], and one `Wire` impl per field shape that occurs
//! in a frame — little-endian integers, strict `bool`, strings, byte
//! and element vectors, options, tuples, dense-index enums, ledger
//! snapshots and bounding boxes. `frame.rs` composes these into the
//! frame kinds; the flight-event shapes live there beside the
//! `Telemetry` frame that carries them.

use crate::frame::{FrameError, RunState};
use insitu_domain::BoundingBox;
use insitu_fabric::{LedgerSnapshot, Locality, TrafficClass};

/// The unread part of a frame payload.
pub(crate) struct Cursor<'a> {
    pub(crate) rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.rest.len() < n {
            return Err(FrameError::Truncated);
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }
}

/// A value with one wire shape: every frame field's type implements it,
/// and a frame payload is its fields' encodings back to back.
pub(crate) trait Wire: Sized {
    /// The fewest bytes one encoded value occupies. `Vec<T>::decode`
    /// checks a claimed element count against it before allocating, so
    /// a hostile count cannot make the decoder reserve memory the
    /// payload could never fill.
    const MIN_WIRE: usize;

    fn encode(&self, out: &mut Vec<u8>);

    fn decode(c: &mut Cursor<'_>) -> Result<Self, FrameError>;

    /// Append a run of values (a vector's elements).
    fn encode_all(items: &[Self], out: &mut Vec<u8>) {
        for item in items {
            item.encode(out);
        }
    }

    /// Read `n` values; `n` has already been checked against
    /// [`Wire::MIN_WIRE`].
    fn decode_all(c: &mut Cursor<'_>, n: usize) -> Result<Vec<Self>, FrameError> {
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(Self::decode(c)?);
        }
        Ok(items)
    }
}

impl Wire for u8 {
    const MIN_WIRE: usize = 1;

    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn decode(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
        Ok(c.take(1)?[0])
    }

    // Byte runs are the bulk payloads (`Relay.payload`, `PullData.data`,
    // `SubPush.data`) and string bodies: one slice copy each way.
    fn encode_all(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }

    fn decode_all(c: &mut Cursor<'_>, n: usize) -> Result<Vec<u8>, FrameError> {
        Ok(c.take(n)?.to_vec())
    }
}

macro_rules! wire_le_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_WIRE: usize = std::mem::size_of::<$t>();

            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn decode(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
                let bytes = c.take(Self::MIN_WIRE)?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("take returns the size asked for")))
            }
        }
    )*};
}

wire_le_int!(u32, u64);

/// One byte, `0` or `1`; anything else is rejected.
impl Wire for bool {
    const MIN_WIRE: usize = 1;

    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    fn decode(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
        match u8::decode(c)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(FrameError::BadPayload("bool")),
        }
    }
}

/// A `u32` count, then the elements.
pub(crate) fn encode_slice<T: Wire>(items: &[T], out: &mut Vec<u8>) {
    (items.len() as u32).encode(out);
    T::encode_all(items, out);
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_WIRE: usize = 4;

    fn encode(&self, out: &mut Vec<u8>) {
        encode_slice(self, out);
    }

    fn decode(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
        let n = u32::decode(c)? as usize;
        // Check the claimed count before allocating for it.
        if c.rest.len() < n.saturating_mul(T::MIN_WIRE) {
            return Err(FrameError::Truncated);
        }
        T::decode_all(c, n)
    }
}

/// UTF-8 bytes with a `u32` length prefix.
impl Wire for String {
    const MIN_WIRE: usize = 4;

    fn encode(&self, out: &mut Vec<u8>) {
        encode_slice(self.as_bytes(), out);
    }

    fn decode(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
        String::from_utf8(Vec::decode(c)?).map_err(|_| FrameError::BadPayload("utf-8"))
    }
}

/// Fixed-length cells, no count prefix.
impl<const N: usize> Wire for [u64; N] {
    const MIN_WIRE: usize = N * u64::MIN_WIRE;

    fn encode(&self, out: &mut Vec<u8>) {
        u64::encode_all(self, out);
    }

    fn decode(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
        let mut cells = [0; N];
        for cell in &mut cells {
            *cell = u64::decode(c)?;
        }
        Ok(cells)
    }
}

/// A presence flag (a strict `bool`), then the value when present.
impl<T: Wire> Wire for Option<T> {
    const MIN_WIRE: usize = 1;

    fn encode(&self, out: &mut Vec<u8>) {
        self.is_some().encode(out);
        if let Some(v) = self {
            v.encode(out);
        }
    }

    fn decode(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
        Ok(if bool::decode(c)? {
            Some(T::decode(c)?)
        } else {
            None
        })
    }
}

macro_rules! wire_tuple {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            const MIN_WIRE: usize = 0 $(+ $t::MIN_WIRE)+;

            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$i.encode(out);)+
            }

            fn decode(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
                Ok(($($t::decode(c)?,)+))
            }
        }
    };
}

wire_tuple!(A 0, B 1);
wire_tuple!(A 0, B 1, C 2, D 3);

/// A dense-index enum encoded as one byte: its position in `ALL`,
/// which lists the variants in index order.
macro_rules! wire_index {
    ($t:ty, $what:literal) => {
        impl Wire for $t {
            const MIN_WIRE: usize = 1;

            fn encode(&self, out: &mut Vec<u8>) {
                let idx = <$t>::ALL
                    .iter()
                    .position(|v| v == self)
                    .expect("ALL lists every variant");
                (idx as u8).encode(out);
            }

            fn decode(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
                let idx = usize::from(u8::decode(c)?);
                <$t>::ALL
                    .get(idx)
                    .copied()
                    .ok_or(FrameError::BadPayload($what))
            }
        }
    };
}

wire_index!(RunState, "run state index");
wire_index!(TrafficClass, "traffic class index");
wire_index!(Locality, "locality index");

/// One per-app ledger cell: `(app, class, locality, bytes)`.
type LedgerEntry = (u32, TrafficClass, Locality, u64);

/// Shared-memory cells, network cells, then the per-app entries in key
/// order.
impl Wire for LedgerSnapshot {
    const MIN_WIRE: usize = 2 * <[u64; 4]>::MIN_WIRE + Vec::<LedgerEntry>::MIN_WIRE;

    fn encode(&self, out: &mut Vec<u8>) {
        self.shm_cells().encode(out);
        self.net_cells().encode(out);
        self.per_app().collect::<Vec<_>>().encode(out);
    }

    fn decode(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
        let shm = Wire::decode(c)?;
        let net = Wire::decode(c)?;
        let per_app: Vec<LedgerEntry> = Wire::decode(c)?;
        Ok(LedgerSnapshot::from_parts(shm, net, per_app))
    }
}

/// The lower corner, then the upper corner. Decoding validates the
/// corners first: `BoundingBox::new` panics on invalid ones, and the
/// codec must stay total.
impl Wire for BoundingBox {
    const MIN_WIRE: usize = 2 * Vec::<u64>::MIN_WIRE;

    fn encode(&self, out: &mut Vec<u8>) {
        let lbs: Vec<u64> = (0..self.ndim()).map(|d| self.lb(d)).collect();
        let ubs: Vec<u64> = (0..self.ndim()).map(|d| self.ub(d)).collect();
        lbs.encode(out);
        ubs.encode(out);
    }

    fn decode(c: &mut Cursor<'_>) -> Result<Self, FrameError> {
        let lbs = Vec::<u64>::decode(c)?;
        let ubs = Vec::<u64>::decode(c)?;
        if lbs.is_empty()
            || lbs.len() != ubs.len()
            || lbs.len() > insitu_domain::MAX_DIMS
            || lbs.iter().zip(&ubs).any(|(l, u)| l > u)
        {
            return Err(FrameError::BadPayload("bbox corners"));
        }
        Ok(BoundingBox::new(&lbs, &ubs))
    }
}
