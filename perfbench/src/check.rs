//! Output checks: every response is verified against the request that
//! produced it, independently of the program's own bookkeeping.

use crate::gen::{Body, Req};
use mg_server::Json;
use mg_sparse::{communication_volume, NonzeroPartition};

/// The service's default ε (the requests never override it).
const EPSILON: f64 = 0.03;

/// What a verified partition response reported.
pub struct Verified {
    pub nnz: usize,
    pub volume: u64,
    pub cached: bool,
    /// The effective RNG seed the job ran with.
    pub seed: u64,
}

/// The largest part the partitioner allows: `⌊(1+ε)·⌈N/2⌉⌋`, its budget
/// for the larger side. On odd `N` this can exceed eqn (1)'s
/// `⌊(1+ε)·N/2⌋` by one nonzero.
fn part_budget(nnz: u64) -> u64 {
    let even = nnz.div_ceil(2);
    ((1.0 + EPSILON) * even as f64).floor() as u64
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn uint(doc: &Json, key: &str) -> Result<u64, String> {
    field(doc, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} is not an unsigned integer"))
}

/// The response with `id` and `cached` removed: what a cache must repeat.
fn normalized(doc: &Json) -> String {
    match doc {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "id" && k != "cached")
                .cloned()
                .collect(),
        )
        .to_string(),
        other => other.to_string(),
    }
}

/// Verifies one response. `first` is the response of the request this one
/// repeats, when it is a repeat. Returns `None` for pings.
pub fn check(
    req: &Req,
    id: u64,
    response: &[u8],
    first: Option<&[u8]>,
) -> Result<Option<Verified>, String> {
    let text = std::str::from_utf8(response).map_err(|_| "response is not UTF-8".to_string())?;
    let doc = Json::parse(text).map_err(|e| format!("response is not JSON: {e}"))?;
    if doc.get("id") != Some(&Json::UInt(id)) {
        return Err(format!("id mismatch: expected {id}"));
    }
    if field(&doc, "status")?.as_str() != Some("ok") {
        return Err(format!("status is not ok: {}", truncate(text)));
    }
    let coo = match &req.body {
        Body::Ping => {
            return match field(&doc, "op")?.as_str() {
                Some("ping") => Ok(None),
                _ => Err("ping answered with another op".into()),
            };
        }
        Body::Matrix { coo, .. } | Body::Collection { coo, .. } => coo,
    };
    let matrix = field(&doc, "matrix")?;
    let shape = (
        uint(matrix, "rows")?,
        uint(matrix, "cols")?,
        uint(matrix, "nnz")?,
    );
    let nnz = coo.nnz() as u64;
    if shape != (u64::from(coo.rows()), u64::from(coo.cols()), nnz) {
        return Err(format!("matrix shape {shape:?} does not match the request"));
    }
    let parts = field(&doc, "part_nnz")?
        .as_array()
        .ok_or("part_nnz is not an array")?;
    let part_nnz: Vec<u64> = parts.iter().filter_map(Json::as_u64).collect();
    if part_nnz.len() != 2 || part_nnz[0] + part_nnz[1] != nnz {
        return Err(format!("part_nnz {part_nnz:?} does not sum to {nnz}"));
    }
    if part_nnz[0].max(part_nnz[1]) > part_budget(nnz) {
        return Err(format!("part_nnz {part_nnz:?} exceeds the ε budget"));
    }
    let volume = uint(&doc, "volume")?;
    let cached = field(&doc, "cached")?
        .as_bool()
        .ok_or("cached is not a bool")?;
    if cached != req.repeat_of.is_some() {
        return Err(format!("cached is {cached}, expected {}", !cached));
    }
    if req.include_partition() {
        let assignment: Vec<u32> = field(&doc, "partition")?
            .as_array()
            .ok_or("partition is not an array")?
            .iter()
            .map(|p| p.as_u64().filter(|&p| p < 2).map(|p| p as u32))
            .collect::<Option<_>>()
            .ok_or("partition holds a part outside {0, 1}")?;
        let partition = NonzeroPartition::new(2, assignment).map_err(|e| e.to_string())?;
        if partition.parts().len() != coo.nnz() {
            return Err("partition length differs from nnz".into());
        }
        if partition.part_sizes() != part_nnz {
            return Err("partition disagrees with part_nnz".into());
        }
        let recomputed = communication_volume(coo, &partition);
        if recomputed != volume {
            return Err(format!(
                "volume {volume} but the partition has {recomputed}"
            ));
        }
    }
    if let Some(first) = first {
        let first = std::str::from_utf8(first).map_err(|_| "first response is not UTF-8")?;
        let first = Json::parse(first).map_err(|e| format!("first response: {e}"))?;
        if normalized(&doc) != normalized(&first) {
            return Err("cached answer differs from its first computation".into());
        }
    }
    Ok(Some(Verified {
        nnz: coo.nnz(),
        volume,
        cached,
        seed: uint(&doc, "seed")?,
    }))
}

fn truncate(text: &str) -> &str {
    let end = text.char_indices().nth(200).map_or(text.len(), |(i, _)| i);
    &text[..end]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Class, Enc};

    fn req() -> Req {
        let coo = mg_sparse::Coo::new(2, 2, vec![(0, 0), (0, 1), (1, 1)]).expect("valid");
        Req::fresh(Class::Main, coo, Enc::Inline)
    }

    const OK: &str = r#"{"id":3,"status":"ok","matrix":{"rows":2,"cols":2,"nnz":3,"fingerprint":"x"},"backend":"mondriaan","method":"mg-ir","epsilon":0.03,"seed":9,"volume":1,"imbalance":0.33,"ir_iterations":1,"part_nnz":[2,1],"cached":false,"partition":[0,0,1]}"#;

    #[test]
    fn accepts_a_consistent_response() {
        let v = check(&req(), 3, OK.as_bytes(), None)
            .expect("valid")
            .expect("partition");
        assert_eq!((v.nnz, v.volume, v.cached, v.seed), (3, 1, false, 9));
        assert_eq!(part_budget(3), 2);
        assert_eq!(part_budget(1000), 515);
        assert_eq!(part_budget(1091), 562);
    }

    #[test]
    fn rejects_wrong_id_volume_balance_and_cache_drift() {
        assert!(check(&req(), 4, OK.as_bytes(), None).is_err());
        let wrong_volume = OK.replace("\"volume\":1", "\"volume\":2");
        assert!(check(&req(), 3, wrong_volume.as_bytes(), None).is_err());
        let unbalanced = OK.replace("[2,1]", "[3,0]").replace("[0,0,1]", "[0,0,0]");
        assert!(check(&req(), 3, unbalanced.as_bytes(), None).is_err());

        let mut repeat = req();
        repeat.repeat_of = Some(0);
        let cached = OK.replace("\"id\":3", "\"id\":8").replace("false", "true");
        assert!(check(&repeat, 8, cached.as_bytes(), Some(OK.as_bytes())).is_ok());
        let drifted = cached.replace("\"seed\":9", "\"seed\":10");
        assert!(check(&repeat, 8, drifted.as_bytes(), Some(OK.as_bytes())).is_err());
        assert!(check(&repeat, 3, OK.as_bytes(), None).is_err());
    }
}
