#include "store/lsh_index.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/binary_io.h"
#include "common/check.h"
#include "common/hash.h"
#include "durability/file_names.h"
#include "durability/posix_file.h"

namespace scprt::store {

namespace {

using durability::Error;
using durability::ErrorCode;
using durability::MakeError;

constexpr char kMetaMagic[8] = {'S', 'C', 'P', 'R', 'T', 'I', 'D', 'X'};
constexpr std::uint32_t kMetaVersion = 1;
constexpr char kMetaName[] = "STOREMETA";

// Directory pages: packed u32 head-page slots.
constexpr std::size_t kDirSlotsPerPage = kPagePayloadSize / 4;

// Bucket and event pages share an 8-byte payload header:
//   [u32 next_page][u16 used][u16 reserved]
// `used` counts postings on bucket pages and bytes (including this
// header) on event pages.
constexpr std::size_t kChainHeaderSize = 8;
constexpr std::size_t kPostingSize = 18;  // u64 key, u32 event, u32 page, u16 off
constexpr std::size_t kPostingsPerPage =
    (kPagePayloadSize - kChainHeaderSize) / kPostingSize;

// Band-key and per-function seed salts (arbitrary odd constants).
constexpr std::uint64_t kFunctionSalt = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kBandSalt = 0xbf58476d1ce4e5b9ULL;

// Chain-walk bound: a corrupted next pointer cannot send a query on an
// unbounded tour of the file.
constexpr std::size_t kMaxChainPages = 1u << 20;

// How long a read of a directory page whose CRC fails is retried before a
// query reports damage, and the pause between reads: a read-only handle
// shares the file with a live writer and can catch one of its in-place
// page rewrites half done. A deadline rather than an attempt count, so a
// writer descheduled in the middle of a rewrite on a loaded host still
// finishes it in time; real damage costs the query the full deadline.
constexpr std::chrono::milliseconds kDirectoryRetryDeadline{250};
constexpr std::chrono::microseconds kDirectoryRetryPause{100};

std::string NormalizeKeyword(const std::string& keyword) {
  return keyword.size() <= kMaxSpellingBytes
             ? keyword
             : keyword.substr(0, kMaxSpellingBytes);
}

std::string EncodeEventPayload(const StoredEvent& event) {
  BinaryWriter out;
  out.U32(event.event_id);
  out.U64(event.cluster_id);
  out.I64(event.quantum);
  out.I64(event.born_at);
  out.F64(event.rank);
  out.U64(event.support);
  out.U32(static_cast<std::uint32_t>(event.keywords.size()));
  for (const std::string& keyword : event.keywords) {
    out.U32(static_cast<std::uint32_t>(keyword.size()));
    out.Bytes(keyword.data(), keyword.size());
  }
  out.U32(static_cast<std::uint32_t>(event.signature.size()));
  for (std::uint64_t value : event.signature) out.U64(value);
  out.U64(event.sketch_p);
  out.U32(static_cast<std::uint32_t>(event.user_sketch.size()));
  for (std::uint64_t key : event.user_sketch) {
    out.U64(key);
    // An f64 slot per key keeps the record layout existing stores hold;
    // it is written as key * 2^-64 and ignored on read.
    out.F64(static_cast<double>(key) * 0x1.0p-64);
  }
  return out.TakeData();
}

bool DecodeEventPayload(std::string_view payload, StoredEvent* event) {
  BinaryReader in(payload);
  event->event_id = in.U32();
  event->cluster_id = in.U64();
  event->quantum = in.I64();
  event->born_at = in.I64();
  event->rank = in.F64();
  event->support = in.U64();
  const std::uint32_t kw_count = in.U32();
  if (!in.CheckLength(kw_count, 4)) return false;
  event->keywords.clear();
  event->keywords.reserve(kw_count);
  for (std::uint32_t i = 0; i < kw_count; ++i) {
    const std::uint32_t len = in.U32();
    if (!in.CheckLength(len, 1)) return false;
    std::string keyword(len, '\0');
    if (!in.ReadBytes(keyword.data(), len)) return false;
    event->keywords.push_back(std::move(keyword));
  }
  const std::uint32_t sig_count = in.U32();
  if (!in.CheckLength(sig_count, 8)) return false;
  event->signature.clear();
  event->signature.reserve(sig_count);
  for (std::uint32_t i = 0; i < sig_count; ++i) {
    event->signature.push_back(in.U64());
  }
  event->sketch_p = in.U64();
  const std::uint32_t sketch_count = in.U32();
  if (!in.CheckLength(sketch_count, 16)) return false;
  event->user_sketch.clear();
  event->user_sketch.reserve(sketch_count);
  for (std::uint32_t i = 0; i < sketch_count; ++i) {
    event->user_sketch.push_back(in.U64());
    in.F64();  // the per-key f64 slot
  }
  return in.ok();
}

std::uint32_t RoundUpPow2(std::uint32_t v) {
  std::uint32_t p = 1;
  while (p < v && p < (1u << 30)) p <<= 1;
  return p;
}

}  // namespace

std::string LshIndex::MetaPath() const { return directory_ + "/" + kMetaName; }

std::uint32_t LshIndex::DirectoryPages() const {
  const std::uint64_t slots =
      static_cast<std::uint64_t>(bands_) * directory_slots_;
  return static_cast<std::uint32_t>((slots + kDirSlotsPerPage - 1) /
                                    kDirSlotsPerPage);
}

akg::MinHashSignature LshIndex::SketchKeywords(
    const std::vector<std::string>& keywords) const {
  const std::size_t k = static_cast<std::size_t>(bands_) * rows_;
  akg::MinHashSignature signature(k, ~std::uint64_t{0});
  for (const std::string& raw : keywords) {
    const std::string keyword = NormalizeKeyword(raw);
    for (std::size_t i = 0; i < k; ++i) {
      const std::uint64_t fn_seed = SplitMix64(seed_ ^ (kFunctionSalt * (i + 1)));
      const std::uint64_t h = HashBytes(keyword, fn_seed);
      if (h < signature[i]) signature[i] = h;
    }
  }
  return signature;
}

std::uint64_t LshIndex::BandKey(const akg::MinHashSignature& signature,
                                std::uint32_t band) const {
  std::uint64_t h = SplitMix64(seed_ ^ (kBandSalt * (band + 1)));
  for (std::uint32_t r = 0; r < rows_; ++r) {
    h = SplitMix64(h ^ signature[static_cast<std::size_t>(band) * rows_ + r]);
  }
  return h;
}

std::unique_ptr<LshIndex> LshIndex::Create(const std::string& directory,
                                           const LshOptions& options,
                                           Error* error) {
  auto index = std::unique_ptr<LshIndex>(new LshIndex());
  index->directory_ = directory;
  index->bands_ = std::max<std::uint32_t>(1, options.bands);
  index->rows_ = std::max<std::uint32_t>(1, options.rows);
  if (index->bands_ * index->rows_ > 64) {
    if (error != nullptr) {
      *error = MakeError(ErrorCode::kStateMismatch,
                         "lsh index: bands * rows must be <= 64");
    }
    return nullptr;
  }
  index->directory_slots_ =
      RoundUpPow2(std::max<std::uint32_t>(64, options.directory_slots));
  index->seed_ = options.seed;
  index->sync_ = options.sync;
  index->file_number_ = 1;
  index->inserts_ =
      obs::Registry::Default().GetCounter("store.events_indexed");
  index->query_latency_ = obs::Registry::Default().GetHistogram(
      "store.query_latency", "ns");

  const std::string path =
      directory + "/" + durability::IndexFileName(index->file_number_);
  index->file_ = PageFile::Create(path, error);
  if (index->file_ == nullptr) return nullptr;
  index->pool_ = std::make_unique<BufferPool>(
      index->file_.get(), std::max<std::size_t>(1, options.pool_frames));
  if (Error e = index->InitDirectory(); !e.ok()) {
    if (error != nullptr) *error = std::move(e);
    return nullptr;
  }
  if (Error e = index->Commit(); !e.ok()) {
    if (error != nullptr) *error = std::move(e);
    return nullptr;
  }
  return index;
}

std::unique_ptr<LshIndex> LshIndex::Open(const std::string& directory,
                                         const LshOptions& options,
                                         Error* error) {
  return OpenImpl(directory, options, /*read_only=*/false, error);
}

std::unique_ptr<LshIndex> LshIndex::OpenReadOnly(const std::string& directory,
                                                 std::size_t pool_frames,
                                                 Error* error) {
  LshOptions options;
  options.pool_frames = pool_frames;
  return OpenImpl(directory, options, /*read_only=*/true, error);
}

std::unique_ptr<LshIndex> LshIndex::OpenImpl(const std::string& directory,
                                             const LshOptions& options,
                                             bool read_only, Error* error) {
  auto fail = [error](Error e) -> std::unique_ptr<LshIndex> {
    if (error != nullptr) *error = std::move(e);
    return nullptr;
  };

  std::string meta;
  if (!durability::ReadFileToString(directory + "/" + kMetaName, meta)) {
    return fail(MakeError(ErrorCode::kIo,
                          directory + ": no " + kMetaName + " record"));
  }
  if (meta.size() < 24 ||
      std::memcmp(meta.data(), kMetaMagic, sizeof(kMetaMagic)) != 0) {
    return fail(
        MakeError(ErrorCode::kBadMagic, directory + ": bad store meta magic"));
  }
  BinaryReader frame(std::string_view(meta).substr(8));
  const std::uint32_t version = frame.U32();
  if (version != kMetaVersion) {
    return fail(MakeError(ErrorCode::kVersionSkew,
                          directory + ": unsupported store meta version"));
  }
  const std::uint64_t payload_len = frame.U64();
  const std::uint32_t stored_crc = frame.U32();
  if (!frame.ok() || payload_len != frame.remaining()) {
    return fail(
        MakeError(ErrorCode::kCorrupt, directory + ": truncated store meta"));
  }
  const std::string_view payload =
      std::string_view(meta).substr(meta.size() - payload_len);
  if (Crc32(payload) != stored_crc) {
    return fail(
        MakeError(ErrorCode::kCorrupt, directory + ": store meta CRC"));
  }

  auto index = std::unique_ptr<LshIndex>(new LshIndex());
  index->directory_ = directory;
  index->read_only_ = read_only;
  index->sync_ = options.sync;
  BinaryReader in(payload);
  index->bands_ = in.U32();
  index->rows_ = in.U32();
  index->directory_slots_ = in.U32();
  index->seed_ = in.U64();
  index->file_number_ = in.U64();
  index->committed_pages_ = in.U32();
  index->committed_events_ = in.U32();
  index->event_head_page_ = in.U32();
  index->event_tail_page_ = in.U32();
  index->event_tail_offset_ = static_cast<std::uint16_t>(in.U32());
  if (!in.ok() || index->bands_ == 0 || index->rows_ == 0 ||
      index->directory_slots_ == 0) {
    return fail(
        MakeError(ErrorCode::kCorrupt, directory + ": malformed store meta"));
  }
  index->next_event_id_ = index->committed_events_;
  index->inserts_ =
      obs::Registry::Default().GetCounter("store.events_indexed");
  index->query_latency_ = obs::Registry::Default().GetHistogram(
      "store.query_latency", "ns");

  const std::string path =
      directory + "/" + durability::IndexFileName(index->file_number_);
  Error open_error;
  index->file_ = PageFile::Open(path, read_only, &open_error);
  if (index->file_ == nullptr) return fail(std::move(open_error));
  const std::uint32_t physical_pages = index->file_->page_count();
  if (physical_pages < index->committed_pages_) {
    return fail(MakeError(ErrorCode::kCorrupt,
                          path + ": shorter than the committed page count"));
  }
  index->pool_ = std::make_unique<BufferPool>(
      index->file_.get(), std::max<std::size_t>(1, options.pool_frames));

  if (read_only) {
    index->file_->set_page_count(physical_pages);
    return index;
  }

  // Writer recovery: re-base the allocator at the committed watermark so
  // the uncommitted physical tail is overwritten, clamp the event tail,
  // and — when uncommitted pages exist — drop the bucket directory and
  // rebuild it from the committed event chain (stale directory pointers
  // may reference pages the allocator is about to hand out again).
  index->file_->set_page_count(index->committed_pages_);
  if (index->event_tail_page_ != 0) {
    PageHandle tail;
    if (Error e = index->pool_->Fetch(index->event_tail_page_, &tail);
        !e.ok()) {
      return fail(std::move(e));
    }
    StoreU32(tail.data(), 0);  // next: the chain ends at the committed tail
    StoreU16(tail.data() + 4, index->event_tail_offset_);
    tail.MarkDirty();
  }
  if (physical_pages > index->committed_pages_) {
    if (Error e = index->RebuildDirectory(); !e.ok()) {
      return fail(std::move(e));
    }
  }
  Error scan_error = index->ScanChain(
      [&index](const StoredEvent& event, std::uint32_t, std::uint16_t) {
        index->seen_.insert({event.cluster_id, event.quantum});
      });
  if (!scan_error.ok()) return fail(std::move(scan_error));
  return index;
}

Error LshIndex::InitDirectory() {
  const std::uint32_t pages = DirectoryPages();
  for (std::uint32_t i = 0; i < pages; ++i) {
    PageHandle handle;
    if (Error e = pool_->NewPage(&handle); !e.ok()) return e;
    // NewPage zero-fills: every slot starts empty (head page 0).
  }
  return {};
}

Error LshIndex::RebuildDirectory() {
  const std::uint32_t pages = DirectoryPages();
  for (std::uint32_t i = 0; i < pages; ++i) {
    PageHandle handle;
    if (Error e = pool_->Fetch(1 + i, &handle); !e.ok()) return e;
    std::memset(handle.data(), 0, kPagePayloadSize);
    handle.MarkDirty();
  }
  return ScanChain([this](const StoredEvent& event, std::uint32_t page,
                          std::uint16_t offset) {
    for (std::uint32_t band = 0; band < bands_; ++band) {
      Posting posting;
      posting.band_key = BandKey(event.signature, band);
      posting.event_id = event.event_id;
      posting.page = page;
      posting.offset = offset;
      // Rebuild is all-or-nothing: an append failure here surfaces on the
      // next page operation; the chain scan itself already validated the
      // committed data.
      (void)AppendPosting(band, posting);
    }
  });
}

Error LshIndex::ReadDirectorySlot(std::uint32_t band, std::uint64_t key,
                                  std::uint32_t* head) {
  const std::uint64_t slot =
      static_cast<std::uint64_t>(band) * directory_slots_ +
      (key & (directory_slots_ - 1));
  const std::uint32_t page =
      1 + static_cast<std::uint32_t>(slot / kDirSlotsPerPage);
  PageHandle handle;
  Error e = pool_->Fetch(page, &handle);
  if (e.code == ErrorCode::kCorrupt) {
    const auto deadline =
        std::chrono::steady_clock::now() + kDirectoryRetryDeadline;
    while (e.code == ErrorCode::kCorrupt &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(kDirectoryRetryPause);
      e = pool_->Fetch(page, &handle);
    }
  }
  if (!e.ok()) return e;
  *head = LoadU32(handle.data() + (slot % kDirSlotsPerPage) * 4);
  return {};
}

Error LshIndex::WriteDirectorySlot(std::uint32_t band, std::uint64_t key,
                                   std::uint32_t head) {
  const std::uint64_t slot =
      static_cast<std::uint64_t>(band) * directory_slots_ +
      (key & (directory_slots_ - 1));
  PageHandle handle;
  if (Error e = pool_->Fetch(
          1 + static_cast<std::uint32_t>(slot / kDirSlotsPerPage), &handle);
      !e.ok()) {
    return e;
  }
  StoreU32(handle.data() + (slot % kDirSlotsPerPage) * 4, head);
  handle.MarkDirty();
  return {};
}

Error LshIndex::AppendEventRecord(const std::string& payload,
                                  std::uint32_t* page, std::uint16_t* offset) {
  const std::size_t total = 8 + payload.size();  // u32 len + u32 crc + body
  if (total > kPagePayloadSize - kChainHeaderSize) {
    return MakeError(ErrorCode::kStateMismatch,
                     "event record too large for one page");
  }
  PageHandle tail;
  if (event_head_page_ == 0) {
    if (Error e = pool_->NewPage(&tail); !e.ok()) return e;
    StoreU16(tail.data() + 4, kChainHeaderSize);
    tail.MarkDirty();
    event_head_page_ = event_tail_page_ = tail.page_no();
  } else {
    if (Error e = pool_->Fetch(event_tail_page_, &tail); !e.ok()) return e;
  }
  std::uint16_t used = LoadU16(tail.data() + 4);
  if (used + total > kPagePayloadSize) {
    PageHandle next;
    if (Error e = pool_->NewPage(&next); !e.ok()) return e;
    StoreU16(next.data() + 4, kChainHeaderSize);
    next.MarkDirty();
    StoreU32(tail.data(), next.page_no());
    tail.MarkDirty();
    event_tail_page_ = next.page_no();
    tail = std::move(next);
    used = kChainHeaderSize;
  }
  char* at = tail.data() + used;
  StoreU32(at, static_cast<std::uint32_t>(payload.size()));
  StoreU32(at + 4, Crc32(payload));
  std::memcpy(at + 8, payload.data(), payload.size());
  StoreU16(tail.data() + 4, static_cast<std::uint16_t>(used + total));
  tail.MarkDirty();
  *page = event_tail_page_;
  *offset = used;
  return {};
}

Error LshIndex::AppendPosting(std::uint32_t band, const Posting& posting) {
  // Head insertion: postings go into the chain's head page until it fills,
  // then a fresh page is prepended — the directory slot always names the
  // only page with free space.
  std::uint32_t head = 0;
  if (Error e = ReadDirectorySlot(band, posting.band_key, &head); !e.ok()) {
    return e;
  }
  PageHandle handle;
  if (head != 0) {
    if (Error e = pool_->Fetch(head, &handle); !e.ok()) return e;
    const std::uint16_t used = LoadU16(handle.data() + 4);
    if (used < kPostingsPerPage) {
      char* at = handle.data() + kChainHeaderSize + used * kPostingSize;
      StoreU64(at, posting.band_key);
      StoreU32(at + 8, posting.event_id);
      StoreU32(at + 12, posting.page);
      StoreU16(at + 16, posting.offset);
      StoreU16(handle.data() + 4, static_cast<std::uint16_t>(used + 1));
      handle.MarkDirty();
      return {};
    }
    handle.Release();
  }
  PageHandle fresh;
  if (Error e = pool_->NewPage(&fresh); !e.ok()) return e;
  StoreU32(fresh.data(), head);  // next: the full (or absent) old head
  StoreU16(fresh.data() + 4, 1);
  char* at = fresh.data() + kChainHeaderSize;
  StoreU64(at, posting.band_key);
  StoreU32(at + 8, posting.event_id);
  StoreU32(at + 12, posting.page);
  StoreU16(at + 16, posting.offset);
  fresh.MarkDirty();
  const std::uint32_t fresh_page = fresh.page_no();
  fresh.Release();
  return WriteDirectorySlot(band, posting.band_key, fresh_page);
}

Error LshIndex::CollectBand(std::uint32_t band, std::uint64_t key,
                            std::vector<Posting>* postings) {
  std::uint32_t page = 0;
  if (Error e = ReadDirectorySlot(band, key, &page); !e.ok()) return e;
  std::unordered_set<std::uint32_t> visited;
  std::size_t steps = 0;
  while (page != 0 && page < file_->page_count() &&
         visited.insert(page).second && ++steps <= kMaxChainPages) {
    PageHandle handle;
    if (Error e = pool_->Fetch(page, &handle); !e.ok()) {
      // A stale pointer into a torn page is a miss, not a query failure.
      if (e.code == ErrorCode::kCorrupt) break;
      return e;
    }
    const std::uint32_t next = LoadU32(handle.data());
    std::size_t used = LoadU16(handle.data() + 4);
    if (used > kPostingsPerPage) used = kPostingsPerPage;
    for (std::size_t i = 0; i < used; ++i) {
      const char* at =
          handle.data() + kChainHeaderSize + i * kPostingSize;
      Posting posting;
      posting.band_key = LoadU64(at);
      posting.event_id = LoadU32(at + 8);
      posting.page = LoadU32(at + 12);
      posting.offset = LoadU16(at + 16);
      if (posting.band_key == key && posting.event_id < committed_events_) {
        postings->push_back(posting);
      }
    }
    page = next;
  }
  return {};
}

Error LshIndex::LoadRecord(std::uint32_t page, std::uint16_t offset,
                           std::uint32_t expect_event_id, StoredEvent* event,
                           bool* valid) {
  *valid = false;
  if (page == 0 || page >= file_->page_count() ||
      offset < kChainHeaderSize ||
      std::size_t{offset} + 8 > kPagePayloadSize) {
    return {};
  }
  PageHandle handle;
  if (Error e = pool_->Fetch(page, &handle); !e.ok()) {
    if (e.code == ErrorCode::kCorrupt) return {};  // stale candidate
    return e;
  }
  const char* at = handle.data() + offset;
  const std::uint32_t len = LoadU32(at);
  if (offset + 8 + len > kPagePayloadSize) return {};
  const std::uint32_t crc = LoadU32(at + 4);
  const std::string_view payload(at + 8, len);
  if (Crc32(payload) != crc) return {};
  StoredEvent decoded;
  if (!DecodeEventPayload(payload, &decoded)) return {};
  if (decoded.event_id != expect_event_id) return {};
  *event = std::move(decoded);
  *valid = true;
  return {};
}

Error LshIndex::ScanChain(
    const std::function<void(const StoredEvent&, std::uint32_t page,
                             std::uint16_t offset)>& fn) {
  if (event_head_page_ == 0) return {};
  std::uint32_t page = event_head_page_;
  std::unordered_set<std::uint32_t> visited;
  std::size_t steps = 0;
  while (page != 0) {
    if (page >= file_->page_count() || !visited.insert(page).second ||
        ++steps > kMaxChainPages) {
      return MakeError(ErrorCode::kCorrupt,
                       "event chain walks outside the committed file");
    }
    PageHandle handle;
    if (Error e = pool_->Fetch(page, &handle); !e.ok()) return e;
    const bool is_tail = page == event_tail_page_;
    std::size_t limit = is_tail ? event_tail_offset_
                                : LoadU16(handle.data() + 4);
    if (limit > kPagePayloadSize) limit = kPagePayloadSize;
    std::size_t offset = kChainHeaderSize;
    while (offset + 8 <= limit) {
      const char* at = handle.data() + offset;
      const std::uint32_t len = LoadU32(at);
      if (offset + 8 + len > limit) {
        return MakeError(ErrorCode::kCorrupt,
                         "event record overruns its page");
      }
      const std::string_view payload(at + 8, len);
      if (Crc32(payload) != LoadU32(at + 4)) {
        return MakeError(ErrorCode::kCorrupt, "event record CRC mismatch");
      }
      StoredEvent event;
      if (!DecodeEventPayload(payload, &event)) {
        return MakeError(ErrorCode::kCorrupt, "event record malformed");
      }
      fn(event, page, static_cast<std::uint16_t>(offset));
      offset += 8 + len;
    }
    if (is_tail) break;
    page = LoadU32(handle.data());
  }
  return {};
}

Error LshIndex::Insert(std::uint64_t cluster_id, std::int64_t quantum,
                       std::int64_t born_at, double rank,
                       std::uint64_t support,
                       const std::vector<std::string>& keywords,
                       const akg::MinHashSignature& user_sketch,
                       std::uint64_t sketch_p) {
  std::lock_guard<std::mutex> lock(mu_);
  if (read_only_) {
    return MakeError(ErrorCode::kIo, "lsh index: read-only handle");
  }
  if (!seen_.insert({cluster_id, quantum}).second) return {};

  StoredEvent event;
  event.event_id = next_event_id_;
  event.cluster_id = cluster_id;
  event.quantum = quantum;
  event.born_at = born_at;
  event.rank = rank;
  event.support = support;
  event.keywords.reserve(std::min(keywords.size(), kMaxRecordKeywords));
  for (const std::string& keyword : keywords) {
    if (event.keywords.size() >= kMaxRecordKeywords) break;
    event.keywords.push_back(NormalizeKeyword(keyword));
  }
  event.signature = SketchKeywords(event.keywords);
  event.sketch_p = sketch_p;
  event.user_sketch = user_sketch;
  if (event.user_sketch.size() > 64) event.user_sketch.resize(64);

  std::uint32_t page = 0;
  std::uint16_t offset = 0;
  if (Error e = AppendEventRecord(EncodeEventPayload(event), &page, &offset);
      !e.ok()) {
    return e;
  }
  for (std::uint32_t band = 0; band < bands_; ++band) {
    Posting posting;
    posting.band_key = BandKey(event.signature, band);
    posting.event_id = event.event_id;
    posting.page = page;
    posting.offset = offset;
    if (Error e = AppendPosting(band, posting); !e.ok()) return e;
  }
  ++next_event_id_;
  inserts_->Increment();
  return {};
}

Error LshIndex::Commit() {
  std::lock_guard<std::mutex> lock(mu_);
  if (read_only_) {
    return MakeError(ErrorCode::kIo, "lsh index: read-only handle");
  }
  if (Error e = pool_->FlushAll(); !e.ok()) return e;
  if (sync_ && !file_->Sync()) {
    return MakeError(ErrorCode::kSyncFailed, file_->path());
  }
  committed_pages_ = file_->page_count();
  committed_events_ = next_event_id_;
  return PublishMeta();
}

Error LshIndex::PublishMeta() {
  // Re-read the live tail's used count: that is the committed tail offset.
  std::uint16_t tail_offset = 0;
  if (event_tail_page_ != 0) {
    PageHandle tail;
    if (Error e = pool_->Fetch(event_tail_page_, &tail); !e.ok()) return e;
    tail_offset = LoadU16(tail.data() + 4);
  }
  event_tail_offset_ = tail_offset;

  BinaryWriter payload;
  payload.U32(bands_);
  payload.U32(rows_);
  payload.U32(directory_slots_);
  payload.U64(seed_);
  payload.U64(file_number_);
  payload.U32(committed_pages_);
  payload.U32(committed_events_);
  payload.U32(event_head_page_);
  payload.U32(event_tail_page_);
  payload.U32(event_tail_offset_);
  const std::string body = payload.TakeData();

  BinaryWriter frame;
  frame.Bytes(kMetaMagic, sizeof(kMetaMagic));
  frame.U32(kMetaVersion);
  frame.U64(body.size());
  frame.U32(Crc32(body));
  frame.Bytes(body.data(), body.size());
  return durability::WriteFileAtomic(MetaPath(), frame.data(), sync_);
}

Error LshIndex::Query(const std::vector<std::string>& keywords,
                      std::size_t top_k, std::vector<QueryResult>* results) {
  std::lock_guard<std::mutex> lock(mu_);
  obs::ScopedHistogramTimer timer(query_latency_);
  results->clear();
  const akg::MinHashSignature signature = SketchKeywords(keywords);
  const std::size_t k = signature.size();

  // Candidate locations per event id: a stale posting can coexist with the
  // real one for the same id, so each location is tried until one record
  // validates.
  std::unordered_map<std::uint32_t,
                     std::vector<std::pair<std::uint32_t, std::uint16_t>>>
      candidates;
  std::vector<Posting> postings;
  for (std::uint32_t band = 0; band < bands_; ++band) {
    postings.clear();
    if (Error e = CollectBand(band, BandKey(signature, band), &postings);
        !e.ok()) {
      return e;
    }
    for (const Posting& posting : postings) {
      auto& locations = candidates[posting.event_id];
      const std::pair<std::uint32_t, std::uint16_t> location{posting.page,
                                                             posting.offset};
      if (std::find(locations.begin(), locations.end(), location) ==
          locations.end()) {
        locations.push_back(location);
      }
    }
  }

  for (const auto& [event_id, locations] : candidates) {
    StoredEvent event;
    bool valid = false;
    for (const auto& [page, offset] : locations) {
      if (Error e = LoadRecord(page, offset, event_id, &event, &valid);
          !e.ok()) {
        return e;
      }
      if (valid) break;
    }
    if (!valid) continue;
    QueryResult result;
    std::size_t matches = 0;
    const std::size_t positions = std::min(k, event.signature.size());
    for (std::size_t i = 0; i < positions; ++i) {
      if (event.signature[i] == signature[i]) ++matches;
    }
    result.jaccard = k == 0 ? 0.0
                            : static_cast<double>(matches) /
                                  static_cast<double>(k);
    result.support_estimate =
        event.sketch_p > 0 && !event.user_sketch.empty()
            ? akg::MinHasher::EstimateDistinctUsers(
                  event.user_sketch, event.sketch_p)
            : static_cast<double>(event.support);
    result.event = std::move(event);
    results->push_back(std::move(result));
  }

  std::sort(results->begin(), results->end(),
            [](const QueryResult& a, const QueryResult& b) {
              if (a.jaccard != b.jaccard) return a.jaccard > b.jaccard;
              if (a.support_estimate != b.support_estimate) {
                return a.support_estimate > b.support_estimate;
              }
              if (a.event.quantum != b.event.quantum) {
                return a.event.quantum > b.event.quantum;
              }
              return a.event.cluster_id < b.event.cluster_id;
            });
  if (results->size() > top_k) results->resize(top_k);
  return {};
}

Error LshIndex::ScanCommitted(std::vector<StoredEvent>* events) {
  std::lock_guard<std::mutex> lock(mu_);
  events->clear();
  return ScanChain([events](const StoredEvent& event, std::uint32_t,
                            std::uint16_t) { events->push_back(event); });
}

std::uint32_t LshIndex::next_event_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_event_id_;
}

}  // namespace scprt::store
