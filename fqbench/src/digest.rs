//! Order-independent answer digests.
//!
//! An answer is summarised as its row count, the wrapping sum of a
//! 64-bit hash of every row, and a verdict (finite, infinite, the truth
//! value of a sentence, or partial). Row order never enters, so a change
//! that reorders an answer still checks equal, while any added, lost or
//! altered row does not.

use crate::json::J;
use fq_query::{Completeness, QueryOutcome};
use fq_relational::Value;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub hash: u64,
    pub verdict: String,
}

impl Digest {
    /// The digest of the union of two answers over disjoint row sets.
    pub fn union(&self, other: &Digest) -> Digest {
        Digest {
            rows: self.rows + other.rows,
            hash: self.hash.wrapping_add(other.hash),
            verdict: self.verdict.clone(),
        }
    }

    /// `rows hash verdict` — one field per column of the cache files.
    pub fn to_fields(&self) -> String {
        format!("{}\t{:016x}\t{}", self.rows, self.hash, self.verdict)
    }

    pub fn from_fields(rows: &str, hash: &str, verdict: &str) -> Option<Digest> {
        Some(Digest {
            rows: rows.parse().ok()?,
            hash: u64::from_str_radix(hash, 16).ok()?,
            verdict: verdict.to_string(),
        })
    }
}

/// FNV-1a over the value tags and payloads, then a SplitMix64 finaliser
/// so that sums of row hashes spread over all 64 bits.
struct RowHasher(u64);

impl RowHasher {
    fn new() -> Self {
        RowHasher(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn nat(&mut self, n: u64) {
        self.bytes(&[1]);
        self.bytes(&n.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.bytes(&[2]);
        self.bytes(&(s.len() as u64).to_le_bytes());
        self.bytes(s.as_bytes());
    }

    fn finish(self) -> u64 {
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn verdict(completeness: &Completeness) -> String {
    match completeness {
        Completeness::Certified => "finite".to_string(),
        Completeness::CertifiedRanf { infinite, .. } => {
            if *infinite { "infinite" } else { "finite" }.to_string()
        }
        Completeness::Decided { value } => value.to_string(),
        Completeness::Partial { .. } => "partial".to_string(),
    }
}

/// The digest of rows as the program returns them in-process.
pub fn of_rows(rows: &[Vec<Value>], completeness: &Completeness) -> Digest {
    let mut hash = 0u64;
    for row in rows {
        let mut h = RowHasher::new();
        for v in row {
            match v {
                Value::Nat(n) => h.nat(*n),
                Value::Str(s) => h.str(s),
            }
        }
        hash = hash.wrapping_add(h.finish());
    }
    Digest {
        rows: rows.len() as u64,
        hash,
        verdict: verdict(completeness),
    }
}

pub fn of_outcome(out: &QueryOutcome) -> Digest {
    of_rows(&out.rows, &out.completeness)
}

/// The digest of a `query` response, or why it is not a valid answer.
pub fn of_response(response: &J) -> Result<Digest, String> {
    if response.get("ok").and_then(J::as_bool) != Some(true) {
        return Err(format!("not ok: {response:?}"));
    }
    let rows = response
        .get("rows")
        .and_then(J::as_arr)
        .ok_or("response has no `rows`")?;
    let mut hash = 0u64;
    for row in rows {
        let mut h = RowHasher::new();
        for cell in row.as_arr().ok_or("row is not an array")? {
            if let Some(n) = cell.get("Nat") {
                h.nat(n.as_u64().ok_or("bad Nat")?);
            } else if let Some(s) = cell.get("Str") {
                h.str(s.as_str().ok_or("bad Str")?);
            } else {
                return Err(format!("bad value {cell:?}"));
            }
        }
        hash = hash.wrapping_add(h.finish());
    }
    let completeness = response.get("completeness").ok_or("no `completeness`")?;
    let verdict = if completeness.as_str() == Some("certified") {
        "finite".to_string()
    } else if let Some(ranf) = completeness.get("certified_ranf") {
        match ranf.get("infinite").and_then(J::as_bool) {
            Some(true) => "infinite".to_string(),
            Some(false) => "finite".to_string(),
            None => return Err("bad certified_ranf".to_string()),
        }
    } else if let Some(value) = completeness.get("decided").and_then(J::as_bool) {
        value.to_string()
    } else if completeness.get("partial").is_some() {
        "partial".to_string()
    } else {
        return Err(format!("unknown completeness {completeness:?}"));
    };
    Ok(Digest {
        rows: rows.len() as u64,
        hash,
        verdict,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_and_in_process_digests_agree_in_any_order() {
        let rows = vec![
            vec![Value::Nat(3), Value::Str("a\"b".into())],
            vec![Value::Nat(1), Value::Str("c".into())],
        ];
        let local = of_rows(&rows, &Completeness::Certified);
        let wire = crate::json::parse(
            r#"{"ok":true,"rows":[[{"Nat":1},{"Str":"c"}],[{"Nat":3},{"Str":"a\"b"}]],"completeness":"certified"}"#,
        )
        .unwrap();
        assert_eq!(of_response(&wire).unwrap(), local);
        let fewer = of_rows(&rows[..1], &Completeness::Certified);
        assert_ne!(fewer, local);
        let split = of_rows(&rows[1..], &Completeness::Certified);
        assert_eq!(fewer.union(&split), local);
    }
}
