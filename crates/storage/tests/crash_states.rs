//! Crash states, not byte prefixes: every state a crash can leave a
//! durable store's directory in, opened and checked.
//!
//! A scripted workload runs against a real directory with a hook
//! ([`tvdp_storage::disk::set_hook`]) that records every disk operation
//! the store makes, marks each batch handed to `apply_batch` and each
//! one acknowledged, and injects the faults the script asks for (a full
//! disk, a failed `fsync`, a failed removal). The script starts from a
//! missing directory and walks six paths: single appends, a batch, a
//! full disk and `repair_tail`, a fold over a torn tail, a torn-tail
//! reopen, and a debris sweep.
//!
//! The model of a crash after operation `k` of the trace:
//!
//! * every synced effect is kept;
//! * per file, any byte prefix of the writes since its last `fsync` is
//!   kept, and for a write of at most four pages also any subset of its
//!   4 KiB pages, a missing page reading as zeros;
//! * per directory, an in-order prefix of the creates, renames and
//!   removals since its last sync is kept;
//! * the writes an `fsync` failed on never count as synced: each is kept
//!   or lost whatever later syncs succeed.
//!
//! Each state is written to a scratch directory and opened with
//! `DurableStore::open`. The open must succeed; the store must hold
//! every acknowledged batch and lie on an op boundary (the acked batches
//! and at most an in-order record prefix of one batch that was not
//! acked); a fold that returned must have left its base or a later one;
//! the report must count the replayed ops, torn bytes and debris the
//! state holds; and the directory it leaves must hold no debris and no
//! torn segment. The model checks itself: at each path's start and at
//! the end, the state that keeps everything must be the real directory
//! byte for byte.
//!
//! The mutants are edits of the recorded trace, with nothing in the
//! shipped code to switch them on; each must be caught, and prints the
//! trace that shows it.

mod common;

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

use common::Scratch;
use tvdp_geo::GeoPoint;
use tvdp_storage::disk::{self, Fault, Op};
use tvdp_storage::wal::{self, frame, pixel_blob};
use tvdp_storage::{
    Annotation, AnnotationId, AnnotationSource, ClassificationId, DurableStore, ImageId, ImageMeta,
    ImageOrigin, UserId, VisualStore, WalOp,
};
use tvdp_vision::{FeatureKind, Image};

/// Page size of the model's torn writes.
const PAGE: usize = 4096;

/// One entry of a recorded trace: a disk operation as it happened (a
/// failed write keeps the bytes that landed), or a mark the script set.
#[derive(Debug, Clone)]
enum Step {
    Create(String),
    CreateDir(String),
    Write {
        file: String,
        offset: usize,
        bytes: Vec<u8>,
    },
    Sync(String),
    SyncFailed(String),
    SetLen {
        file: String,
        len: usize,
    },
    Rename {
        from: String,
        to: String,
    },
    Remove(String),
    SyncDir(String),
    /// Batch `i` of the script is handed to `apply_batch`.
    Attempt(usize),
    /// ... and acknowledged.
    Ack(usize),
    /// A fold returned, its base at this epoch.
    Folded(u64),
    /// The script enters a path.
    Path(&'static str),
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Write {
                file,
                offset,
                bytes,
            } => write!(f, "write {file} @{offset} +{}", bytes.len()),
            Step::SetLen { file, len } => write!(f, "set_len {file} {len}"),
            Step::Rename { from, to } => write!(f, "rename {from} -> {to}"),
            Step::SyncDir(d) => write!(f, "sync_dir {:?}", d),
            other => write!(f, "{other:?}"),
        }
    }
}

/// Faults the recording hook injects, as the script sets them.
#[derive(Debug, Clone, Copy, Default)]
struct Faults {
    /// The next write keeps this many bytes and fails with ENOSPC; the
    /// disk then stays full (every write keeps none) until cleared.
    tear: Option<usize>,
    full: bool,
    /// The next `fsync` of a file fails with EIO after its write landed.
    sync: bool,
    /// Every removal fails with EIO.
    remove: bool,
}

thread_local! {
    static ROOT: RefCell<PathBuf> = const { RefCell::new(PathBuf::new()) };
    static TRACE: RefCell<Vec<Step>> = const { RefCell::new(Vec::new()) };
    static FAULTS: Cell<Faults> = Cell::new(Faults::default());
}

fn rel(path: &Path) -> String {
    ROOT.with_borrow(|root| {
        let rel = path
            .strip_prefix(root)
            .unwrap_or_else(|_| panic!("{} is outside the scratch root", path.display()));
        rel.to_string_lossy().into_owned()
    })
}

fn push(step: Step) {
    TRACE.with_borrow_mut(|t| t.push(step));
}

fn fail(kept: usize, errno: i32) -> Fault {
    Fault {
        kept,
        error: std::io::Error::from_raw_os_error(errno),
    }
}

/// The recording hook.
fn record(op: &Op<'_>) -> Option<Fault> {
    const ENOSPC: i32 = 28;
    const EIO: i32 = 5;
    let mut faults = FAULTS.get();
    let verdict = match *op {
        Op::Create(p) => {
            push(Step::Create(rel(p)));
            None
        }
        Op::CreateDir(p) => {
            push(Step::CreateDir(rel(p)));
            None
        }
        Op::Write {
            path,
            offset,
            bytes,
        } => {
            let kept = match faults.tear.take() {
                Some(kept) => {
                    faults.full = true;
                    kept.min(bytes.len())
                }
                None if faults.full => 0,
                None => bytes.len(),
            };
            if kept > 0 {
                push(Step::Write {
                    file: rel(path),
                    offset: offset as usize,
                    bytes: bytes[..kept].to_vec(),
                });
            }
            (kept < bytes.len()).then(|| fail(kept, ENOSPC))
        }
        Op::Sync(p) if faults.sync => {
            faults.sync = false;
            push(Step::SyncFailed(rel(p)));
            Some(fail(0, EIO))
        }
        Op::Sync(p) => {
            push(Step::Sync(rel(p)));
            None
        }
        Op::SetLen { path, len } => {
            push(Step::SetLen {
                file: rel(path),
                len: len as usize,
            });
            None
        }
        Op::Rename { from, to } => {
            push(Step::Rename {
                from: rel(from),
                to: rel(to),
            });
            None
        }
        Op::Remove(_) if faults.remove => Some(fail(0, EIO)),
        Op::Remove(p) => {
            push(Step::Remove(rel(p)));
            None
        }
        Op::SyncDir(p) => {
            push(Step::SyncDir(rel(p)));
            None
        }
    };
    FAULTS.set(faults);
    verdict
}

/// A path's relative name: its parent and its last component.
fn split(path: &str) -> (&str, &str) {
    path.rsplit_once('/').unwrap_or(("", path))
}

/// Path → file bytes, or `None` for a directory; the root is implied.
type Tree = BTreeMap<String, Option<Vec<u8>>>;

/// The real directory under `root`.
fn snapshot(root: &Path) -> Tree {
    fn walk(dir: &Path, prefix: &str, tree: &mut Tree) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let entry = entry.unwrap();
            let name = entry.file_name().to_string_lossy().into_owned();
            let path = if prefix.is_empty() {
                name
            } else {
                format!("{prefix}/{name}")
            };
            if entry.file_type().unwrap().is_dir() {
                tree.insert(path.clone(), None);
                walk(&entry.path(), &path, tree);
            } else {
                tree.insert(path, Some(std::fs::read(entry.path()).unwrap()));
            }
        }
    }
    let mut tree = Tree::new();
    walk(root, "", &mut tree);
    tree
}

// ---------------------------------------------------------------------
// The model: what a crash after each operation may leave.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    File(usize),
    Dir(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kept {
    Synced,
    /// Pending when an `fsync` of the file failed: kept or not.
    Doomed,
    Pending,
}

#[derive(Debug, Clone)]
enum Change {
    Write { offset: usize, bytes: Vec<u8> },
    SetLen(usize),
}

impl Change {
    fn apply(&self, content: &mut Vec<u8>) {
        match self {
            Change::SetLen(len) => content.resize(*len, 0),
            Change::Write { offset, bytes } => {
                let end = offset + bytes.len();
                if content.len() < end {
                    content.resize(end, 0);
                }
                content[*offset..end].copy_from_slice(bytes);
            }
        }
    }
}

#[derive(Debug, Clone)]
enum NameOp {
    Link(String, Node),
    Unlink(String),
    Rename(String, String),
}

#[derive(Debug, Clone, Default)]
struct Dir {
    synced: BTreeMap<String, Node>,
    pending: Vec<NameOp>,
}

impl Dir {
    /// The entries a crash keeps when it keeps `kept` pending operations.
    fn entries(&self, kept: usize) -> BTreeMap<String, Node> {
        let mut entries = self.synced.clone();
        for op in &self.pending[..kept] {
            match op {
                NameOp::Link(name, node) => {
                    entries.insert(name.clone(), *node);
                }
                NameOp::Unlink(name) => {
                    entries.remove(name);
                }
                NameOp::Rename(from, to) => {
                    if let Some(node) = entries.remove(from) {
                        entries.insert(to.clone(), node);
                    }
                }
            }
        }
        entries
    }
}

#[derive(Debug, Clone)]
struct Model {
    /// The tree as the program sees it, the root at "".
    live: BTreeMap<String, Node>,
    files: Vec<Vec<(Change, Kept)>>,
    dirs: Vec<Dir>,
}

impl Model {
    fn new() -> Self {
        Model {
            live: BTreeMap::from([(String::new(), Node::Dir(0))]),
            files: Vec::new(),
            dirs: vec![Dir::default()],
        }
    }

    fn dir(&mut self, path: &str) -> &mut Dir {
        match self.live.get(path) {
            Some(Node::Dir(d)) => &mut self.dirs[*d],
            _ => panic!("no directory {path:?} in the model"),
        }
    }

    fn file(&mut self, path: &str) -> &mut Vec<(Change, Kept)> {
        match self.live.get(path) {
            Some(Node::File(f)) => &mut self.files[*f],
            _ => panic!("no file {path:?} in the model"),
        }
    }

    /// File `f`'s content as the program sees it: every change applied.
    fn live_content(&self, f: usize) -> Vec<u8> {
        let mut content = Vec::new();
        for (change, _) in &self.files[f] {
            change.apply(&mut content);
        }
        content
    }

    fn link(&mut self, path: &str, node: Node) {
        self.live.insert(path.to_string(), node);
        let (parent, name) = split(path);
        self.dir(parent)
            .pending
            .push(NameOp::Link(name.to_string(), node));
    }

    fn apply(&mut self, step: &Step) {
        match step {
            Step::Create(path) => match self.live.get(path.as_str()) {
                Some(_) => self.file(path).push((Change::SetLen(0), Kept::Pending)),
                None => {
                    self.files.push(Vec::new());
                    self.link(path, Node::File(self.files.len() - 1));
                }
            },
            Step::CreateDir(path) => {
                self.dirs.push(Dir::default());
                self.link(path, Node::Dir(self.dirs.len() - 1));
            }
            Step::Write {
                file,
                offset,
                bytes,
            } => self.file(file).push((
                Change::Write {
                    offset: *offset,
                    bytes: bytes.clone(),
                },
                Kept::Pending,
            )),
            Step::SetLen { file, len } => {
                self.file(file).push((Change::SetLen(*len), Kept::Pending))
            }
            Step::Sync(file) | Step::SyncFailed(file) => {
                let to = match step {
                    Step::Sync(_) => Kept::Synced,
                    _ => Kept::Doomed,
                };
                for (_, kept) in self.file(file).iter_mut() {
                    if *kept == Kept::Pending {
                        *kept = to;
                    }
                }
            }
            Step::Rename { from, to } => {
                // A rename or removal the real call refused changes
                // nothing.
                if let Some(node) = self.live.remove(from) {
                    self.live.insert(to.clone(), node);
                    let ((parent, from), (same, to)) = (split(from), split(to));
                    assert_eq!(parent, same, "a rename across directories");
                    let op = NameOp::Rename(from.to_string(), to.to_string());
                    self.dir(parent).pending.push(op);
                }
            }
            Step::Remove(path) => {
                if self.live.remove(path).is_some() {
                    let (parent, name) = split(path);
                    self.dir(parent)
                        .pending
                        .push(NameOp::Unlink(name.to_string()));
                }
            }
            Step::SyncDir(path) => {
                let dir = self.dir(path);
                dir.synced = dir.entries(dir.pending.len());
                dir.pending.clear();
            }
            Step::Attempt(_) | Step::Ack(_) | Step::Folded(_) | Step::Path(_) => {}
        }
    }

    /// The state that keeps everything: what the program sees.
    fn all_kept(&self) -> Tree {
        let mut tree = Tree::new();
        for (path, node) in self.live.iter().filter(|(p, _)| !p.is_empty()) {
            tree.insert(
                path.clone(),
                match node {
                    Node::Dir(_) => None,
                    Node::File(f) => Some(self.live_content(*f)),
                },
            );
        }
        tree
    }

    /// Every content a crash may leave file `f` with.
    fn contents(&self, f: usize) -> BTreeSet<Vec<u8>> {
        let hist = &self.files[f];
        let settled = hist
            .iter()
            .position(|(_, kept)| *kept == Kept::Pending)
            .unwrap_or(hist.len());
        let doomed: Vec<usize> = (0..settled)
            .filter(|&i| hist[i].1 == Kept::Doomed)
            .collect();
        let mut out = BTreeSet::new();
        for mask in 0..1u32 << doomed.len() {
            let mut content = Vec::new();
            for (i, (change, kept)) in hist[..settled].iter().enumerate() {
                let lost = *kept == Kept::Doomed
                    && mask & 1 << doomed.iter().position(|&d| d == i).unwrap() == 0;
                if !lost {
                    change.apply(&mut content);
                }
            }
            for (change, _) in &hist[settled..] {
                out.insert(content.clone());
                if let Change::Write { offset, bytes } = change {
                    for cut in 1..bytes.len() {
                        let mut torn = content.clone();
                        let bytes = bytes[..cut].to_vec();
                        Change::Write {
                            offset: *offset,
                            bytes,
                        }
                        .apply(&mut torn);
                        out.insert(torn);
                    }
                    let end = offset + bytes.len();
                    let pages = offset / PAGE..end.div_ceil(PAGE);
                    if pages.len() <= 4 {
                        // Every subset but the whole: the size moves,
                        // a missing page keeps what it held (zeros past
                        // the old end).
                        for subset in 0..(1u32 << pages.len()) - 1 {
                            let mut torn = content.clone();
                            if torn.len() < end {
                                torn.resize(end, 0);
                            }
                            for (bit, page) in pages.clone().enumerate() {
                                if subset & 1 << bit != 0 {
                                    let from = (page * PAGE).max(*offset);
                                    let to = ((page + 1) * PAGE).min(end);
                                    torn[from..to]
                                        .copy_from_slice(&bytes[from - offset..to - offset]);
                                }
                            }
                            out.insert(torn);
                        }
                    }
                }
                change.apply(&mut content);
            }
            out.insert(content);
        }
        out
    }

    /// Every distinct state a crash at this point may leave.
    fn crash_states(&self) -> BTreeSet<Tree> {
        let pending: Vec<usize> = (0..self.dirs.len())
            .filter(|&d| !self.dirs[d].pending.is_empty())
            .collect();
        let mut contents: HashMap<usize, Vec<Vec<u8>>> = HashMap::new();
        let mut states = BTreeSet::new();
        let mut kept = vec![0; pending.len()];
        loop {
            // One choice of kept directory operations: walk the tree it
            // leaves, then every choice of file contents.
            let mut choice = BTreeMap::new();
            for (slot, &d) in pending.iter().enumerate() {
                choice.insert(d, kept[slot]);
            }
            let mut dirs = Tree::new();
            let mut files: Vec<(String, usize)> = Vec::new();
            let mut stack = vec![(String::new(), 0)];
            while let Some((path, d)) = stack.pop() {
                let dir = &self.dirs[d];
                let entries = dir.entries(choice.get(&d).copied().unwrap_or(0));
                for (name, node) in entries {
                    let child = if path.is_empty() {
                        name
                    } else {
                        format!("{path}/{name}")
                    };
                    match node {
                        Node::Dir(c) => {
                            dirs.insert(child.clone(), None);
                            stack.push((child, c));
                        }
                        Node::File(f) => files.push((child, f)),
                    }
                }
            }
            for &(_, f) in &files {
                contents
                    .entry(f)
                    .or_insert_with(|| self.contents(f).into_iter().collect());
            }
            let options: Vec<&Vec<Vec<u8>>> = files.iter().map(|(_, f)| &contents[f]).collect();
            let product: usize = options.iter().map(|o| o.len()).product();
            assert!(product <= 100_000, "{product} states at one crash point");
            for mut index in 0..product {
                let mut tree = dirs.clone();
                for ((path, _), options) in files.iter().zip(&options) {
                    tree.insert(path.clone(), Some(options[index % options.len()].clone()));
                    index /= options.len();
                }
                states.insert(tree);
            }
            // The next choice, odometer-wise.
            let Some(slot) =
                (0..pending.len()).find(|&s| kept[s] < self.dirs[pending[s]].pending.len())
            else {
                break;
            };
            kept[slot] += 1;
            kept[..slot].iter_mut().for_each(|k| *k = 0);
        }
        states
    }
}

// ---------------------------------------------------------------------
// The script.
// ---------------------------------------------------------------------

fn meta() -> ImageMeta {
    ImageMeta {
        uploader: UserId(1),
        gps: GeoPoint::new(34.05, -118.25),
        fov: None,
        captured_at: 100,
        uploaded_at: 110,
        keywords: vec!["street".into()],
    }
}

/// A NaN whose payload a canonicalising copy would lose.
fn nan_with_payload() -> f32 {
    f32::from_bits(0xffc0_0042)
}

/// A keyed upload with pixels and a CNN vector holding a `-0.0` and a
/// NaN payload.
fn upload(id: u64) -> WalOp {
    WalOp::IngestUpload {
        marker: Some(format!("edge-{id}")),
        id: ImageId(id),
        meta: meta(),
        origin: ImageOrigin::Original,
        pixels: Some(pixel_blob(&Image::from_fn(1, 1, |_, _| [id as u8, 20, 30]))),
        features: vec![(
            FeatureKind::Cnn,
            vec![0.5, -0.0, nan_with_payload(), id as f32],
        )],
    }
}

fn feature(image: u64, kind: FeatureKind) -> WalOp {
    WalOp::PutFeature {
        image: ImageId(image),
        kind,
        vector: vec![-0.0, nan_with_payload(), 0.25],
    }
}

fn label(id: u64, image: u64) -> WalOp {
    WalOp::Annotate(Annotation {
        id: AnnotationId(id),
        image: ImageId(image),
        classification: ClassificationId(0),
        label: 1,
        confidence: 0.75,
        source: AnnotationSource::Human(UserId(2)),
        region: None,
    })
}

/// What the script did.
struct Run {
    trace: Vec<Step>,
    /// Every batch handed to `apply_batch`, acked or not.
    batches: Vec<Vec<WalOp>>,
    /// A fold's base epoch → the ops acked when it cut the store.
    cuts: BTreeMap<u64, usize>,
    /// The real directory at a trace length: each path's start, and the
    /// end.
    real: Vec<(usize, Tree)>,
}

struct Script {
    root: PathBuf,
    run: Run,
    acked_ops: usize,
}

impl Script {
    fn checkpoint(&mut self) {
        let at = TRACE.with_borrow(Vec::len);
        self.run.real.push((at, snapshot(&self.root)));
    }

    fn path(&mut self, name: &'static str) {
        self.checkpoint();
        push(Step::Path(name));
    }

    /// Hands `ops` to `apply_batch`, marking the attempt and the ack.
    fn commit(&mut self, ds: &DurableStore, ops: Vec<WalOp>) -> bool {
        let batch = self.run.batches.len();
        self.run.batches.push(ops.clone());
        push(Step::Attempt(batch));
        let len = ops.len();
        let acked = ds.apply_batch(ops).is_ok();
        if acked {
            push(Step::Ack(batch));
            self.acked_ops += len;
        }
        acked
    }

    fn fold(&mut self, ds: &DurableStore) {
        let epoch = ds.health().epoch + 1;
        self.run.cuts.insert(epoch, self.acked_ops);
        assert_eq!(ds.compact().unwrap().epoch, epoch);
        push(Step::Folded(epoch));
    }
}

/// Runs the workload in `root/run` (missing until the store makes it)
/// under the recording hook.
fn run_script(root: &Path) -> Run {
    std::fs::create_dir_all(root).unwrap();
    ROOT.set(root.to_path_buf());
    TRACE.take();
    FAULTS.set(Faults::default());
    disk::set_hook(Some(record));
    let store = root.join("store");
    let mut s = Script {
        root: root.to_path_buf(),
        run: Run {
            trace: Vec::new(),
            batches: Vec::new(),
            cuts: BTreeMap::new(),
            real: Vec::new(),
        },
        acked_ops: 0,
    };

    s.path("append");
    let (ds, _) = DurableStore::open(&store).unwrap();
    assert!(s.commit(&ds, vec![upload(0)]));
    assert!(s.commit(&ds, vec![feature(0, FeatureKind::ColorHistogram)]));

    s.path("batch");
    let scheme = WalOp::RegisterScheme {
        id: ClassificationId(0),
        name: "cleanliness".into(),
        labels: vec!["clean".into(), "dirty".into()],
    };
    let child = WalOp::AddImage {
        id: ImageId(2),
        meta: meta(),
        origin: ImageOrigin::Augmented {
            parent: ImageId(1),
            op: "flip_h".into(),
        },
        pixels: None,
    };
    assert!(s.commit(&ds, vec![scheme, upload(1), label(0, 1), child]));

    s.path("repair");
    // The disk fills five bytes into a batch's second record, and stays
    // full: the next batch is shed after the tail is repaired.
    let first = frame(&upload(3).encode()).len();
    FAULTS.set(Faults {
        tear: Some(first + 5),
        ..Faults::default()
    });
    assert!(!s.commit(&ds, vec![upload(3), upload(4)]));
    assert!(!s.commit(&ds, vec![upload(3)]));
    // Space is freed, and an `fsync` fails after its write landed.
    FAULTS.set(Faults {
        sync: true,
        ..Faults::default()
    });
    assert!(!s.commit(&ds, vec![upload(3)]));
    assert!(s.commit(&ds, vec![upload(3)]));
    assert!(s.commit(&ds, vec![label(1, 3)]));

    s.path("fold");
    // A torn tail the fold must cut before it seals the segment.
    FAULTS.set(Faults {
        tear: Some(3),
        ..Faults::default()
    });
    assert!(!s.commit(&ds, vec![upload(4)]));
    FAULTS.set(Faults::default());
    s.fold(&ds);
    assert!(s.commit(&ds, vec![upload(4)]));

    s.path("resume");
    FAULTS.set(Faults {
        tear: Some(3),
        ..Faults::default()
    });
    assert!(!s.commit(&ds, vec![upload(5)]));
    FAULTS.set(Faults::default());
    drop(ds);
    let (ds, report) = DurableStore::open(&store).unwrap();
    assert_eq!(report.torn_bytes, 3);
    assert!(s.commit(&ds, vec![upload(5)]));

    s.path("sweep");
    // The fold's removals fail: the next open sweeps the old base and
    // the folded segment.
    FAULTS.set(Faults {
        remove: true,
        ..Faults::default()
    });
    s.fold(&ds);
    FAULTS.set(Faults::default());
    assert!(s.commit(&ds, vec![upload(6)]));
    drop(ds);
    let (ds, report) = DurableStore::open(&store).unwrap();
    assert_eq!(report.debris_removed, 2);
    assert!(s.commit(&ds, vec![feature(6, FeatureKind::SiftBow)]));
    drop(ds);

    s.checkpoint();
    disk::set_hook(None);
    s.run.trace = TRACE.take();
    s.run
}

// ---------------------------------------------------------------------
// Opening a state, and what it must hold.
// ---------------------------------------------------------------------

/// What a state opened to.
#[derive(Debug, Clone)]
struct Opened {
    digest: u64,
    replayed: usize,
    /// The highest base the state holds.
    base: Option<u64>,
}

fn epoch_of(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// Whether `name` is debris beside a base at epoch `floor`: a staging
/// file, or a base or segment below it.
fn is_debris(name: &str, floor: u64) -> bool {
    let below = |prefix, suffix| epoch_of(name, prefix, suffix).is_some_and(|e| e < floor);
    name.ends_with(".tmp") || below("base-", ".seg") || below("wal-", ".log")
}

/// Whether the segment at `path` scans whole: no torn tail.
fn scans_whole(path: &Path) -> Result<(), String> {
    let bytes = std::fs::read(path).unwrap();
    let mut scan = wal::scan(path, &bytes[..]).map_err(|e| e.to_string())?;
    for op in &mut scan {
        op.map_err(|e| e.to_string())?;
    }
    if scan.valid_len() != bytes.len() {
        return Err(format!(
            "{} keeps {} torn byte(s) after the open",
            path.display(),
            bytes.len() - scan.valid_len()
        ));
    }
    Ok(())
}

/// Writes `state` under `crash`, opens the store in it and checks what
/// depends on the state alone: the report's counts and the directory
/// the open leaves.
fn open_state(crash: &Path, state: &Tree) -> Result<Opened, String> {
    std::fs::remove_dir_all(crash).ok();
    std::fs::create_dir(crash).unwrap();
    for (path, node) in state {
        match node {
            None => std::fs::create_dir(crash.join(path)).unwrap(),
            Some(bytes) => std::fs::write(crash.join(path), bytes).unwrap(),
        }
    }
    let names: Vec<(&str, &[u8])> = state
        .iter()
        .filter_map(|(path, node)| Some((path.strip_prefix("store/")?, node.as_deref()?)))
        .collect();
    let epochs = |prefix, suffix| {
        names
            .iter()
            .filter_map(move |(name, _)| epoch_of(name, prefix, suffix))
    };
    let base = epochs("base-", ".seg").max();
    let floor = base.unwrap_or(0);
    let debris = names
        .iter()
        .filter(|(name, _)| is_debris(name, floor))
        .count();
    let live = epochs("wal-", ".log").filter(|&e| e >= floor).max();

    let store = crash.join("store");
    let (ds, report) = DurableStore::open(&store).map_err(|e| format!("the open fails: {e}"))?;
    let digest = ds.store_arc().digest();
    drop(ds);

    let mut problems = Vec::new();
    if report.debris_removed != debris {
        problems.push(format!(
            "{} debris file(s) swept, {debris} in the state",
            report.debris_removed
        ));
    }
    if report.epoch != live.unwrap_or(floor) {
        problems.push(format!("opened at epoch {}", report.epoch));
    }
    if let Some(epoch) = live {
        let name = format!("wal-{epoch}.log");
        let before = names.iter().find(|(n, _)| *n == name).unwrap().1;
        let after = std::fs::read(store.join(&name)).unwrap();
        if (report.torn_bytes > 0) != (before != after && !before.is_empty()) {
            problems.push(format!(
                "{} torn byte(s) reported for a live segment of {} byte(s) the open left at {}",
                report.torn_bytes,
                before.len(),
                after.len()
            ));
        }
    }
    for entry in std::fs::read_dir(&store).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if is_debris(&name, floor) {
            problems.push(format!("{name} is left after the open"));
        }
        if name.starts_with("wal-") {
            if let Err(e) = scans_whole(&store.join(&name)) {
                problems.push(e);
            }
        }
    }
    if !problems.is_empty() {
        return Err(problems.join("; "));
    }
    Ok(Opened {
        digest,
        replayed: report.replayed_ops,
        base,
    })
}

/// The states on an op boundary a crash may leave, by digest, each
/// with its op count: the acked batches, then at most an in-order
/// record prefix of one batch that was not acked.
fn legal(run: &Run, acked: &[usize], unacked: &[usize]) -> BTreeMap<u64, usize> {
    let replay = || {
        let store = VisualStore::new();
        for &batch in acked {
            store.apply_batch(run.batches[batch].clone()).unwrap();
        }
        store
    };
    let acked_ops: usize = acked.iter().map(|&b| run.batches[b].len()).sum();
    let mut legal = BTreeMap::from([(replay().digest(), acked_ops)]);
    for &batch in unacked {
        let store = replay();
        for (kept, op) in run.batches[batch].iter().enumerate() {
            store.apply_batch(vec![op.clone()]).unwrap();
            legal.insert(store.digest(), acked_ops + kept + 1);
        }
    }
    legal
}

fn key(state: &Tree) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    state.hash(&mut hasher);
    hasher.finish()
}

/// What an exploration found.
#[derive(Default)]
struct Explored {
    /// Distinct states by the path whose crash points left them.
    states: BTreeMap<&'static str, BTreeSet<u64>>,
    violations: Vec<String>,
}

/// A violation at crash point `k` (after `k` steps), with the state and
/// the trace that led to it.
fn describe(trace: &[Step], k: usize, state: &Tree, what: &str) -> String {
    let mut out = format!("crash after step {k}: {what}\n  state:");
    for (path, node) in state {
        match node {
            None => out.push_str(&format!(" {path}/")),
            Some(bytes) => out.push_str(&format!(" {path} ({} B)", bytes.len())),
        }
    }
    out.push_str("\n  trace:");
    for (i, step) in trace.iter().enumerate().take(k).skip(k.saturating_sub(14)) {
        out.push_str(&format!("\n    {:>3} {step}", i + 1));
    }
    out
}

/// Opens every crash state of `trace` and checks each against the
/// script's acks and folds; with `check_model`, also holds the model's
/// all-kept state to the real directory at each checkpoint.
fn explore(
    run: &Run,
    trace: &[Step],
    crash: &Path,
    opened: &mut HashMap<u64, Result<Opened, String>>,
    first_only: bool,
    check_model: bool,
) -> Explored {
    let mut explored = Explored::default();
    let mut model = Model::new();
    let (mut acked, mut unacked) = (Vec::new(), Vec::new());
    let (mut folded, mut path) = (0, "append");
    let mut legal_sets = HashMap::new();
    let mut real = run.real.iter().peekable();
    let mut states = model.crash_states();
    for k in 0..=trace.len() {
        if k > 0 {
            let step = &trace[k - 1];
            model.apply(step);
            match *step {
                Step::Attempt(batch) => unacked.push(batch),
                Step::Ack(batch) => {
                    acked.push(batch);
                    unacked.clear();
                }
                Step::Folded(epoch) => folded = epoch,
                Step::Path(name) => path = name,
                _ => states = model.crash_states(),
            }
        }
        while let Some((_, tree)) = real.next_if(|(at, _)| *at == k) {
            if check_model {
                assert!(
                    model.all_kept() == *tree,
                    "the model's all-kept state after step {k} is not the real directory"
                );
            }
        }
        let legal = legal_sets
            .entry((acked.len(), unacked.clone()))
            .or_insert_with(|| legal(run, &acked, &unacked));
        for state in &states {
            let id = key(state);
            explored.states.entry(path).or_default().insert(id);
            let outcome = opened.entry(id).or_insert_with(|| open_state(crash, state));
            let violation = match outcome {
                Err(e) => Some(e.clone()),
                Ok(o) => {
                    match legal.get(&o.digest) {
                        None => {
                            Some("the store lost an acked batch or is not on an op boundary".into())
                        }
                        Some(&ops) => {
                            let folded_ops =
                                o.base.map_or(0, |e| run.cuts.get(&e).copied().unwrap_or(0));
                            if o.replayed + folded_ops != ops {
                                Some(format!("{} op(s) replayed over a base of {folded_ops}, {ops} recovered", o.replayed))
                            } else if o.base.unwrap_or(0) < folded {
                                Some(format!(
                                    "the base of the fold to epoch {folded} that returned is lost"
                                ))
                            } else {
                                None
                            }
                        }
                    }
                }
            };
            if let Some(what) = violation {
                explored.violations.push(describe(trace, k, state, &what));
                if first_only {
                    return explored;
                }
            }
        }
    }
    explored
}

fn scratch(name: &str) -> Scratch {
    Scratch::new(format!("tvdp-crash-states-{name}-{}", std::process::id()))
}

#[test]
fn every_crash_state_of_every_path_opens_to_the_acked_store() {
    let root = scratch("shipped");
    let run = run_script(&root.join("run"));
    let explored = explore(
        &run,
        &run.trace,
        &root.join("crash"),
        &mut HashMap::new(),
        false,
        true,
    );
    for (path, states) in &explored.states {
        println!("{path}: {} crash state(s)", states.len());
    }
    assert!(
        explored.violations.is_empty(),
        "{} violation(s); the first:\n{}",
        explored.violations.len(),
        explored.violations[0]
    );
    let paths: Vec<&str> = explored.states.keys().copied().collect();
    assert_eq!(
        paths,
        ["append", "batch", "fold", "repair", "resume", "sweep"]
    );
}

/// The range of `trace` one path covers.
fn section(trace: &[Step], name: &str) -> std::ops::Range<usize> {
    let start = trace
        .iter()
        .position(|s| matches!(s, Step::Path(p) if *p == name))
        .unwrap();
    let end = trace[start + 1..]
        .iter()
        .position(|s| matches!(s, Step::Path(_)))
        .map_or(trace.len(), |i| start + 1 + i);
    start..end
}

/// The first index in `range` whose step matches.
fn find(trace: &[Step], range: std::ops::Range<usize>, f: impl Fn(&Step) -> bool) -> usize {
    range.clone().find(|&i| f(&trace[i])).unwrap()
}

/// A mutant: an edit of the recorded trace.
type Edit = fn(&[Step]) -> Vec<Step>;

/// A base published without its directory sync.
fn publish_unsynced(trace: &[Step]) -> Vec<Step> {
    let fold = section(trace, "fold");
    let rename = find(trace, fold.clone(), |s| matches!(s, Step::Rename { .. }));
    let sync = find(trace, rename..fold.end, |s| matches!(s, Step::SyncDir(_)));
    let mut edited = trace.to_vec();
    edited.remove(sync);
    edited
}

/// An append acked before its `sync_data`.
fn ack_before_sync(trace: &[Step]) -> Vec<Step> {
    let append = section(trace, "append");
    let ack = find(trace, append.clone(), |s| matches!(s, Step::Ack(_)));
    let sync = (append.start..ack)
        .rev()
        .find(|&i| matches!(trace[i], Step::Sync(_)))
        .unwrap();
    let mut edited = trace.to_vec();
    let step = edited.remove(ack);
    edited.insert(sync, step);
    edited
}

/// The folded segment removed before the new base's directory sync:
/// ahead of its rename.
fn segment_removed_early(trace: &[Step]) -> Vec<Step> {
    let fold = section(trace, "fold");
    let rename = find(trace, fold.clone(), |s| matches!(s, Step::Rename { .. }));
    let remove = find(
        trace,
        rename..fold.end,
        |s| matches!(s, Step::Remove(p) if p.contains("/wal-")),
    );
    let mut edited = trace.to_vec();
    let step = edited.remove(remove);
    edited.insert(rename, step);
    edited
}

/// `repair_tail` without its seek: the next write lands where the torn
/// one ended, past a NUL gap.
fn write_past_the_cut(trace: &[Step]) -> Vec<Step> {
    let repair = section(trace, "repair");
    let ack = find(trace, repair.clone(), |s| matches!(s, Step::Ack(_)));
    let write = (repair.start..ack)
        .rev()
        .find(|&i| matches!(trace[i], Step::Write { .. }))
        .unwrap();
    let cut = (repair.start..write)
        .rev()
        .find(|&i| matches!(trace[i], Step::SetLen { .. }))
        .unwrap();
    let mut model = Model::new();
    trace[..cut].iter().for_each(|s| model.apply(s));
    let mut edited = trace.to_vec();
    if let Step::Write { file, offset, .. } = &mut edited[write] {
        let Some(&Node::File(f)) = model.live.get(file.as_str()) else {
            panic!("{file} is not a file");
        };
        *offset = model.live_content(f).len();
    }
    edited
}

/// A fold that seals the torn tail without repairing it.
fn fold_unrepaired(trace: &[Step]) -> Vec<Step> {
    let fold = section(trace, "fold");
    let rotate = find(
        trace,
        fold.clone(),
        |s| matches!(s, Step::Create(p) if p.contains("/wal-")),
    );
    let cut = (fold.start..rotate)
        .rev()
        .find(|&i| matches!(trace[i], Step::SetLen { .. }))
        .unwrap();
    assert!(matches!(trace[cut + 1], Step::Sync(_)));
    let mut edited = trace.to_vec();
    edited.drain(cut..cut + 2);
    edited
}

#[test]
fn each_mutant_trace_is_caught_with_the_trace_that_shows_it() {
    let root = scratch("mutants");
    let run = run_script(&root.join("run"));
    let mut opened = HashMap::new();
    let mutants: [(&str, Edit); 5] = [
        (
            "a base publish without its directory sync",
            publish_unsynced,
        ),
        ("an ack before sync_data", ack_before_sync),
        (
            "the folded segment removed before the base's directory sync",
            segment_removed_early,
        ),
        (
            "the write after repair_tail at the pre-truncation offset",
            write_past_the_cut,
        ),
        ("a fold that seals an unrepaired torn tail", fold_unrepaired),
    ];
    for (name, edit) in mutants {
        let trace = edit(&run.trace);
        let explored = explore(&run, &trace, &root.join("crash"), &mut opened, true, false);
        let Some(violation) = explored.violations.first() else {
            panic!("mutant survived: {name}");
        };
        println!("mutant caught: {name}\n{violation}\n");
    }
}
