//! Output checks. Each returns `Err` with a reason on a wrong answer;
//! any failed check makes the run report `"correct": false`.

use std::collections::BTreeSet;

use classic_kb::Kb;
use classic_lang::{Command, Outcome};
use classic_obs::Json;

/// The `names` array of an `individuals` reply (`retrieve`/`possible`).
pub fn reply_names(reply: &str) -> Result<Vec<String>, String> {
    let json =
        Json::parse(reply.trim()).map_err(|e| format!("reply is not JSON ({e}): {reply:.200}"))?;
    let names = json
        .get("result")
        .and_then(|r| r.get("names"))
        .and_then(|n| n.as_arr())
        .ok_or_else(|| format!("reply has no result.names: {reply:.200}"))?;
    names
        .iter()
        .map(|n| {
            n.as_str()
                .map(str::to_owned)
                .ok_or_else(|| "non-string name".to_owned())
        })
        .collect()
}

/// Number of names in an `individuals` reply, counted without parsing
/// (the hot path counts every read's answers).
pub fn count_names(reply: &str) -> u64 {
    match reply.find("\"names\":[") {
        Some(at) => {
            let list = &reply[at + 9..];
            if list.starts_with(']') {
                0
            } else {
                list.matches("\",\"").count() as u64 + 1
            }
        }
        None => 0,
    }
}

/// `wire-mixed`: the read that follows an acknowledged write must see it.
pub fn read_your_write(reply: &str, name: &str) -> Result<(), String> {
    if reply.contains(&format!("\"{name}\"")) {
        Ok(())
    } else {
        Err(format!(
            "read after the acknowledged write of {name} does not contain it"
        ))
    }
}

/// `wire-mixed`: a served answer set equals the oracle's.
pub fn same_answers(form: &str, reply: &str, expected: &BTreeSet<String>) -> Result<(), String> {
    let got: BTreeSet<String> = reply_names(reply)?.into_iter().collect();
    if &got == expected {
        Ok(())
    } else {
        let missing = expected.difference(&got).count();
        let extra = got.difference(expected).count();
        Err(format!(
            "{form}: served {} answers, oracle {} ({missing} missing, {extra} extra)",
            got.len(),
            expected.len()
        ))
    }
}

/// The oracle's answer set for a `retrieve` form (naive scan, every
/// individual tested), on an in-process replica.
pub fn oracle_answers(kb: &mut Kb, form: &str) -> Result<BTreeSet<String>, String> {
    let cmd = classic_lang::parse_one(form).map_err(|e| e.to_string())?;
    let ids = match &cmd {
        Command::Retrieve(q) => {
            let q = q.resolve(kb.schema_mut()).map_err(|e| e.to_string())?;
            classic_query::retrieve_naive(kb, &q.concept)
                .map_err(|e| e.to_string())?
                .known
        }
        other => return Err(format!("no oracle for {other:?}")),
    };
    Ok(ids
        .into_iter()
        .map(|id| {
            kb.schema()
                .symbols
                .individual_name(kb.ind(id).name)
                .to_owned()
        })
        .collect())
}

/// Build the replica the oracle runs on: the same forms, evaluated
/// in-process on a fresh KB.
pub fn replica(forms: &[String]) -> Result<Kb, String> {
    let mut kb = Kb::new();
    for form in forms {
        let cmd = classic_lang::parse_one(form).map_err(|e| e.to_string())?;
        match classic_lang::eval(&mut kb, &cmd).map_err(|e| e.to_string())? {
            Outcome::BulkLoaded(r) if r.rejected > 0 => {
                return Err(format!("replica rejected {} preload rows", r.rejected))
            }
            _ => {}
        }
    }
    Ok(kb)
}

/// `wire-cascade`: an `(ALL member TRACKED)` on a hub whose members are
/// all untracked fires the rule once on each member.
pub fn fired_rules(reply: &str, members: usize) -> Result<(), String> {
    let json =
        Json::parse(reply.trim()).map_err(|e| format!("reply is not JSON ({e}): {reply:.200}"))?;
    let fired = json
        .get("result")
        .and_then(|r| r.get("rules"))
        .and_then(|n| n.as_num())
        .ok_or_else(|| format!("reply has no result.rules: {reply:.200}"))?;
    if fired == members as f64 {
        Ok(())
    } else {
        Err(format!(
            "fired {fired} rules, expected one on each of {members} members"
        ))
    }
}

/// `wire-cascade`: the members of every hub whose `(ALL member TRACKED)`
/// stands are `AUDITED` by the rule, and nothing else is.
pub fn audited_count(reply: &str, expected: usize) -> Result<(), String> {
    let got = reply_names(reply)?.len();
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "(retrieve AUDITED) has {got} answers, expected {expected} tracked members"
        ))
    }
}

/// `bulk-ingest`: the reply commits every row with no rejections, and
/// `/stats` shows the tenant holding exactly that many individuals.
pub fn ingest_reply(body: &str, rows: usize, stats_individuals: usize) -> Result<(), String> {
    let json = Json::parse(body.trim()).map_err(|e| format!("ingest reply is not JSON ({e})"))?;
    let result = json
        .get("result")
        .ok_or_else(|| format!("ingest failed: {body:.300}"))?;
    let num = |k: &str| result.get(k).and_then(|v| v.as_num()).unwrap_or(-1.0);
    if num("rows") != rows as f64 || num("accepted") != rows as f64 {
        return Err(format!(
            "ingest reply counts {} rows / {} accepted, sent {rows}",
            num("rows"),
            num("accepted")
        ));
    }
    if num("rejected") != 0.0 {
        return Err(format!("ingest rejected {} rows", num("rejected")));
    }
    if stats_individuals != rows {
        return Err(format!(
            "/stats shows {stats_individuals} individuals after ingesting {rows} rows"
        ));
    }
    Ok(())
}

/// After shutdown, a reopened tenant holds as many individuals as the
/// server reported and answers the last read the server served (a
/// `(form, reply)` pair) the same way, so what the acknowledged writes
/// left standing survived the restart.
pub fn reopened(
    kb: &mut Kb,
    expected_count: usize,
    served: Option<(&str, &str)>,
) -> Result<(), String> {
    if kb.ind_count() != expected_count {
        return Err(format!(
            "reopened store holds {} individuals, the server reported {expected_count}",
            kb.ind_count()
        ));
    }
    if let Some((form, reply)) = served {
        let want = oracle_answers(kb, form)?;
        same_answers(form, reply, &want).map_err(|e| format!("after reopen, {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPLY: &str = r#"{"ok":true,"result":{"type":"individuals","names":["a","b-1","c"]}}"#;

    #[test]
    fn name_counting_matches_parsing() {
        assert_eq!(count_names(REPLY), 3);
        assert_eq!(reply_names(REPLY).unwrap().len(), 3);
        assert_eq!(
            count_names(r#"{"ok":true,"result":{"type":"individuals","names":[]}}"#),
            0
        );
    }

    #[test]
    fn read_your_write_fires_on_a_missing_write() {
        assert!(read_your_write(REPLY, "b-1").is_ok());
        assert!(read_your_write(REPLY, "b").is_err());
    }

    #[test]
    fn answer_check_fires_on_a_wrong_oracle() {
        let mut kb = replica(&[
            "(define-role r)".into(),
            "(define-concept P (PRIMITIVE THING p))".into(),
            "(bulk-load (into P) (roles r) (row a _) (row c _))".into(),
        ])
        .expect("replica");
        let want = oracle_answers(&mut kb, "(retrieve P)").expect("oracle");
        let served = r#"{"ok":true,"result":{"type":"individuals","names":["a","c"]}}"#;
        assert!(same_answers("(retrieve P)", served, &want).is_ok());
        assert!(same_answers("(retrieve P)", REPLY, &want).is_err());
    }

    #[test]
    fn audited_check_fires_on_a_wrong_count() {
        assert!(audited_count(REPLY, 3).is_ok());
        assert!(audited_count(REPLY, 4).is_err());
    }

    #[test]
    fn fired_rules_check_fires_on_a_wrong_fan_out() {
        let reply = r#"{"ok":true,"result":{"type":"asserted","steps":601,"fills":0,"corefs":0,"rules":300,"reclassified":601,"created":0}}"#;
        assert!(fired_rules(reply, 300).is_ok());
        assert!(fired_rules(reply, 299).is_err());
        assert!(fired_rules(REPLY, 3).is_err());
    }

    #[test]
    fn ingest_check_fires_on_wrong_counts_or_rejections() {
        let ok = r#"{"ok":true,"result":{"type":"ingested","rows":5,"accepted":5,"rejected":0}}"#;
        assert!(ingest_reply(ok, 5, 5).is_ok());
        assert!(ingest_reply(ok, 6, 5).is_err());
        assert!(ingest_reply(ok, 5, 4).is_err());
        let rejected =
            r#"{"ok":true,"result":{"type":"ingested","rows":5,"accepted":4,"rejected":1}}"#;
        assert!(ingest_reply(rejected, 5, 5).is_err());
        assert!(ingest_reply(r#"{"ok":false,"error":"x"}"#, 5, 5).is_err());
    }

    #[test]
    fn reopen_check_fires_on_a_lost_individual_or_write() {
        let mut kb = replica(&[
            "(define-concept P (PRIMITIVE THING p))".into(),
            "(create-ind a)".into(),
            "(create-ind b)".into(),
            "(assert-ind a P)".into(),
        ])
        .expect("replica");
        let served = r#"{"ok":true,"result":{"type":"individuals","names":["a"]}}"#;
        assert!(reopened(&mut kb, 2, Some(("(retrieve P)", served))).is_ok());
        assert!(reopened(&mut kb, 3, None).is_err());
        let lost = r#"{"ok":true,"result":{"type":"individuals","names":["a","b"]}}"#;
        assert!(reopened(&mut kb, 2, Some(("(retrieve P)", lost))).is_err());
    }
}
