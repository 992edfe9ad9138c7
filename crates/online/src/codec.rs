//! The binary codec for tenant payloads: checkpoint shards and
//! hibernation pages.
//!
//! A payload is the vendored serde event stream of the value written as
//! self-describing little-endian binary, behind the four-byte magic `RSB1`:
//!
//! ```text
//! payload := MAGIC value
//! value   := 0x00                                   null
//!          | 0x01 | 0x02                            false | true
//!          | 0x03 f64-bits:u64                      number (raw IEEE-754 bits)
//!          | 0x04 i64 | 0x05 u64                    exact integers
//!          | 0x06 len:u32 utf8[len]                 string
//!          | 0x07 count:u32 value[count]            array
//!          | 0x08 count:u32 (len:u32 utf8[len] value)[count]   object
//! ```
//!
//! Every integer is little-endian and fixed-width. Floats travel as their
//! bits, so every `f64` — NaN payloads, infinities and `-0.0` included —
//! round-trips exactly, and encoding costs no float formatting. Decoding
//! rebuilds the [`Value`] tree and hands it to the types' existing
//! [`Deserialize`] impls, so a payload type needs nothing beyond its serde
//! derives. Integrity is the caller's: shard and page checksums cover the
//! encoded bytes. The manifest and traces stay JSON; this codec is for
//! tenant state only, and [`decode_value`] renders any payload back as a
//! tree (the `fleet_demo dump` mode prints it as JSON).

use serde::{Deserialize, Serialize, Serializer, Value};

/// The four bytes every payload starts with.
const MAGIC: [u8; 4] = *b"RSB1";

const NULL: u8 = 0x00;
const FALSE: u8 = 0x01;
const TRUE: u8 = 0x02;
const NUM: u8 = 0x03;
const INT: u8 = 0x04;
const UINT: u8 = 0x05;
const STR: u8 = 0x06;
const ARR: u8 = 0x07;
const OBJ: u8 = 0x08;

/// Deepest container nesting a payload may have (tenant state nests a
/// handful of levels); bounds the decoder's recursion on a corrupt file.
const MAX_DEPTH: usize = 64;

/// Encode `value` as a binary payload.
pub fn encode<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut sink = BinarySerializer {
        out: Vec::with_capacity(4_096),
        open: Vec::new(),
    };
    sink.out.extend_from_slice(&MAGIC);
    value.serialize(&mut sink);
    debug_assert!(sink.open.is_empty(), "unbalanced serde event stream");
    sink.out
}

/// Decode a binary payload into a `T` through its [`Deserialize`] impl.
pub(crate) fn decode<T: Deserialize>(bytes: &[u8]) -> Result<T, String> {
    T::from_value(&decode_value(bytes)?).map_err(|e| e.to_string())
}

/// Decode a binary payload into its [`Value`] tree.
pub fn decode_value(bytes: &[u8]) -> Result<Value, String> {
    let body = bytes
        .strip_prefix(&MAGIC)
        .ok_or("not a binary payload (bad magic)")?;
    let mut reader = Reader {
        bytes: body,
        pos: 0,
        depth: 0,
    };
    let value = reader.value()?;
    if reader.pos != body.len() {
        return Err(format!(
            "{} trailing bytes after the payload",
            body.len() - reader.pos
        ));
    }
    Ok(value)
}

/// Streams serde events into the binary layout. Array and object counts
/// are not known when they open, so each open container reserves its
/// count and patches it when it closes.
struct BinarySerializer {
    out: Vec<u8>,
    /// Per open container: where its count goes and the count so far.
    open: Vec<(usize, u32)>,
}

impl BinarySerializer {
    fn len_prefixed(&mut self, bytes: &[u8]) {
        let len = u32::try_from(bytes.len()).expect("string longer than 4 GiB");
        self.out.extend_from_slice(&len.to_le_bytes());
        self.out.extend_from_slice(bytes);
    }

    fn open(&mut self, tag: u8) {
        self.out.push(tag);
        self.open.push((self.out.len(), 0));
        self.out.extend_from_slice(&[0; 4]);
    }

    fn count(&mut self) {
        let (_, count) = self.open.last_mut().expect("element outside a container");
        *count += 1;
    }

    fn close(&mut self) {
        let (at, count) = self.open.pop().expect("close without an open container");
        self.out[at..at + 4].copy_from_slice(&count.to_le_bytes());
    }
}

impl Serializer for BinarySerializer {
    fn null(&mut self) {
        self.out.push(NULL);
    }

    fn boolean(&mut self, b: bool) {
        self.out.push(if b { TRUE } else { FALSE });
    }

    fn num(&mut self, x: f64) {
        self.out.push(NUM);
        self.out.extend_from_slice(&x.to_bits().to_le_bytes());
    }

    fn int(&mut self, i: i64) {
        self.out.push(INT);
        self.out.extend_from_slice(&i.to_le_bytes());
    }

    fn uint(&mut self, u: u64) {
        self.out.push(UINT);
        self.out.extend_from_slice(&u.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.out.push(STR);
        self.len_prefixed(s.as_bytes());
    }

    fn begin_arr(&mut self) {
        self.open(ARR);
    }

    fn elem(&mut self) {
        self.count();
    }

    fn end_arr(&mut self) {
        self.close();
    }

    fn begin_obj(&mut self) {
        self.open(OBJ);
    }

    fn key(&mut self, k: &str) {
        self.count();
        self.len_prefixed(k.as_bytes());
    }

    fn end_obj(&mut self) {
        self.close();
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the value being read.
    depth: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| format!("truncated payload at byte {}", self.pos))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn string(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let at = self.pos;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|e| format!("invalid UTF-8 in the string at byte {at}: {e}"))
    }

    /// Open a container and read its count. The count is checked against
    /// the bytes left (every element takes at least one byte) and the
    /// nesting against [`MAX_DEPTH`], so a corrupt payload can make the
    /// decoder neither reserve unbounded memory nor recurse without bound.
    fn open(&mut self) -> Result<usize, String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "containers nested deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        let count = self.u32()? as usize;
        if count > self.bytes.len() - self.pos {
            return Err(format!(
                "container count {count} exceeds the payload at byte {}",
                self.pos
            ));
        }
        Ok(count)
    }

    fn value(&mut self) -> Result<Value, String> {
        let at = self.pos;
        Ok(match self.u8()? {
            NULL => Value::Null,
            FALSE => Value::Bool(false),
            TRUE => Value::Bool(true),
            NUM => Value::Num(f64::from_bits(self.u64()?)),
            INT => Value::Int(self.u64()? as i64),
            UINT => Value::UInt(self.u64()?),
            STR => Value::Str(self.string()?),
            ARR => {
                let count = self.open()?;
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(self.value()?);
                }
                self.depth -= 1;
                Value::Arr(items)
            }
            OBJ => {
                let count = self.open()?;
                let mut pairs = Vec::with_capacity(count);
                for _ in 0..count {
                    let key = self.string()?;
                    pairs.push((key, self.value()?));
                }
                self.depth -= 1;
                Value::Obj(pairs)
            }
            tag => return Err(format!("unknown tag 0x{tag:02x} at byte {at}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaler::tests::fast_config;
    use crate::scaler::{OnlineScaler, ScalerSnapshot};

    #[test]
    fn every_value_shape_round_trips_exactly() {
        let tree = Value::Obj(vec![
            ("null".into(), Value::Null),
            (
                "flags".into(),
                Value::Arr(vec![Value::Bool(true), Value::Bool(false)]),
            ),
            (
                "floats".into(),
                Value::Arr(
                    [
                        0.1,
                        -0.0,
                        f64::INFINITY,
                        f64::NEG_INFINITY,
                        f64::MIN_POSITIVE,
                    ]
                    .into_iter()
                    .map(Value::Num)
                    .collect(),
                ),
            ),
            (
                "ints".into(),
                Value::Arr(vec![Value::Int(i64::MIN), Value::UInt(u64::MAX)]),
            ),
            ("text".into(), Value::Str("ünïcode ✓ \"quoted\"".into())),
            ("empty".into(), Value::Obj(vec![])),
        ]);
        let bytes = encode(&tree);
        assert!(bytes.starts_with(&MAGIC));
        assert_eq!(decode_value(&bytes).unwrap(), tree);
        // NaN is not equal to itself; its bits survive.
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let back: f64 = decode(&encode(&nan)).unwrap();
        assert_eq!(back.to_bits(), nan.to_bits());
    }

    #[test]
    fn scaler_snapshots_round_trip_bit_exactly() {
        let mut scaler = OnlineScaler::new(fast_config(), 0.0).unwrap();
        let arrivals: Vec<f64> = (0..400).map(|i| i as f64 * 2.7).collect();
        scaler.ingest_batch(&arrivals);
        scaler.plan_round(1_080.0, 0).unwrap();
        let snapshot = scaler.snapshot();
        let bytes = encode(&snapshot);
        let back: ScalerSnapshot = decode(&bytes).unwrap();
        assert_eq!(back, snapshot);
        // Smaller than the JSON text of the same snapshot.
        assert!(bytes.len() < serde_json::to_string(&snapshot).unwrap().len());
    }

    #[test]
    fn malformed_payloads_fail_with_a_reason() {
        let bytes = encode(&vec![1.5_f64, 2.5]);
        assert!(decode_value(b"{\"json\":1}").unwrap_err().contains("magic"));
        for cut in MAGIC.len()..bytes.len() {
            assert!(decode_value(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(NULL);
        assert!(decode_value(&trailing).unwrap_err().contains("trailing"));
        let mut bad_tag = bytes.clone();
        bad_tag[MAGIC.len()] = 0x7f;
        assert!(decode_value(&bad_tag).unwrap_err().contains("unknown tag"));
        let mut huge = MAGIC.to_vec();
        huge.push(ARR);
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_value(&huge).unwrap_err().contains("count"));
        let mut deep = MAGIC.to_vec();
        for _ in 0..=MAX_DEPTH {
            deep.push(ARR);
            deep.extend_from_slice(&1u32.to_le_bytes());
        }
        deep.push(NULL);
        assert!(decode_value(&deep).unwrap_err().contains("nested"));
        // A well-formed payload of the wrong shape fails in the derive.
        assert!(decode::<Vec<String>>(&bytes).is_err());
    }
}
