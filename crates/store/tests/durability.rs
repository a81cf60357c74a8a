//! Writer durability under injected faults: a failed store write must
//! be *invisible* — no half-written file under the target name, no
//! stranded staging sibling — and a disarmed retry must succeed over
//! the same path.
//!
//! Kept in its own test binary: the failpoint registry is
//! process-global, so these tests must not share a process with other
//! failpoint users.

use fs_graph::failpoint::ArmedGuard;
use fs_graph::GraphAccess;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// The two tests arm the same site, so they take turns: one's armed
/// fault would otherwise fail the other's unarmed writes.
static FAILPOINTS: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    FAILPOINTS.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fs_store_durability_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn residue(dir: &PathBuf) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect()
}

#[test]
fn failed_write_is_invisible_and_retry_succeeds() {
    let _serial = serial();
    let g = fs_gen::barabasi_albert(500, 3, &mut rand::rngs::SmallRng::seed_from_u64(11));
    let dir = tmp_dir("invisible");
    let path = dir.join("g.fsg");

    // Hard error mid-assembly: target absent, staging cleaned up.
    {
        let _armed = ArmedGuard::new("store.write=error:1.0", 1);
        assert!(fs_store::write_store(&g, &path).is_err());
    }
    assert!(!path.exists(), "failed write must not publish the target");
    assert_eq!(residue(&dir), Vec::<String>::new(), "no staging residue");

    // Short write (partial payload lands, then the failure): same
    // invisibility guarantee.
    {
        let _armed = ArmedGuard::new("store.write=short_write:1.0", 2);
        assert!(fs_store::write_store(&g, &path).is_err());
    }
    assert!(!path.exists());
    assert_eq!(residue(&dir), Vec::<String>::new());

    // Disarmed: the same path now takes a full, openable store.
    fs_store::write_store(&g, &path).unwrap();
    let m = fs_store::MmapGraph::open(&path).unwrap();
    assert_eq!(m.num_vertices(), g.num_vertices());
    assert_eq!(m.num_arcs(), g.num_arcs());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_rewrite_preserves_the_existing_store() {
    let _serial = serial();
    let g1 = fs_gen::barabasi_albert(300, 2, &mut rand::rngs::SmallRng::seed_from_u64(5));
    let g2 = fs_gen::barabasi_albert(400, 3, &mut rand::rngs::SmallRng::seed_from_u64(6));
    let dir = tmp_dir("preserve");
    let path = dir.join("g.fsg");
    fs_store::write_store(&g1, &path).unwrap();
    let before = std::fs::read(&path).unwrap();

    // A failed overwrite must leave the old bits untouched — the
    // staging file absorbs the damage, the rename never happens.
    {
        let _armed = ArmedGuard::new("store.write=enospc:1.0", 3);
        assert!(fs_store::write_store(&g2, &path).is_err());
    }
    assert_eq!(std::fs::read(&path).unwrap(), before);
    let m = fs_store::MmapGraph::open(&path).unwrap();
    assert_eq!(m.num_vertices(), g1.num_vertices());
    std::fs::remove_dir_all(&dir).ok();
}
