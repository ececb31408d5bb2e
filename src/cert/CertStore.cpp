//===- cert/CertStore.cpp - Persistent certificate store ---------------------===//

#include "cert/CertStore.h"

#include "obs/Metrics.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>

#ifndef _WIN32
#include <unistd.h>
#endif

using namespace ccal;
using cert::CertStore;

namespace fs = std::filesystem;

namespace {

void count(const char *Name) {
  if (obs::enabled())
    obs::counterAdd(Name);
}

thread_local cert::Traffic ThisThread;

/// Reads \p P whole.  With several PROCESSES sharing one store directory
/// (the certd daemon's contract) a file can be evicted between the
/// caller's existence probe and this open — \p Vanished distinguishes
/// that (ENOENT: treat as a plain cache miss) from genuine I/O failure
/// (treat as a rejected entry).
std::string readFile(const fs::path &P, bool &Ok, bool &Vanished) {
  Ok = false;
  Vanished = false;
  std::FILE *F = std::fopen(P.string().c_str(), "rb");
  if (!F) {
    Vanished = errno == ENOENT;
    return "";
  }
  std::string Out;
  char Buf[1 << 16];
  std::size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) != 0)
    Out.append(Buf, N);
  Ok = std::ferror(F) == 0;
  std::fclose(F);
  return Out;
}

} // namespace

CertStore::CertStore(std::string Dir, std::size_t MaxEntries)
    : Dir(std::move(Dir)), MaxEntries(MaxEntries) {
  std::error_code Ec;
  fs::create_directories(this->Dir, Ec); // best effort; load/store re-fail
}

std::string CertStore::render(const CertKey &Key, const Entry &E) {
  JsonValue Doc;
  Doc.K = JsonValue::Kind::Object;
  Doc.Fields["schema"] = jsonInt(StoreSchemaVersion);
  Doc.Fields["checker"] = jsonStr(Key.Checker);
  Doc.Fields["version"] = jsonStr(Key.Version);
  char Hex[24];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(Key.Hash));
  Doc.Fields["key"] = jsonStr(Hex);
  Doc.Fields["desc"] = jsonStr(Key.Desc);
  Doc.Fields["certificate"] = certToJson(*E.Cert);
  Doc.Fields["payload"] = E.Payload;
  return jsonToString(Doc) + "\n";
}

bool CertStore::load(const CertKey &Key, Entry &Out) {
  fs::path Path = fs::path(Dir) / (Key.fileStem() + ".cert.json");
  std::error_code Ec;

  auto Reject = [&] {
    count("cert.rejections");
    fs::remove(Path, Ec); // rejected evidence is dead weight; re-check
    return false;
  };

  // No existence pre-probe: with multiple processes sharing the store a
  // file can vanish between any two steps (a concurrent eviction), so the
  // open itself is the probe and ENOENT at ANY point is a plain miss —
  // never a rejection, which would charge an innocent entry's slot and
  // count corruption that never happened.
  bool ReadOk = false, Vanished = false;
  std::string Text = readFile(Path, ReadOk, Vanished);
  if (Vanished)
    return false; // plain miss; getOrCheck counts it
  if (!ReadOk)
    return Reject();
  JsonParseResult Parsed = parseJson(Text);
  if (!Parsed)
    return Reject();
  JsonValue &Doc = Parsed.Value;

  const JsonValue *Schema = Doc.field("schema");
  if (!Schema || !Schema->isNumber() || !Schema->IsInt ||
      Schema->IntVal != StoreSchemaVersion)
    return Reject();

  // The recomputed address must match the recorded one in every part:
  // a different checker, version tag, or input hash under this file name
  // means the entry answers a different question than the one asked.
  char Hex[24];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(Key.Hash));
  const JsonValue *Checker = Doc.field("checker");
  const JsonValue *Version = Doc.field("version");
  const JsonValue *KeyHex = Doc.field("key");
  if (!Checker || !Checker->isString() || Checker->StrVal != Key.Checker ||
      !Version || !Version->isString() || Version->StrVal != Key.Version ||
      !KeyHex || !KeyHex->isString() || KeyHex->StrVal != Hex)
    return Reject();

  const JsonValue *CertDoc = Doc.field("certificate");
  if (!CertDoc)
    return Reject();
  std::string Error;
  CertPtr C = certFromJson(*CertDoc, Error);
  if (!C)
    return Reject();
  // Valid without complete coverage cannot be minted honestly; incomplete
  // coverage discharges nothing and is not worth serving either way.
  if (C->Valid && !C->CoverageComplete)
    return Reject();
  if (!C->CoverageComplete)
    return Reject();

  auto Payload = Doc.Fields.find("payload");
  if (Payload == Doc.Fields.end())
    return Reject();

  Out.Cert = std::move(C);
  Out.Payload = std::move(Payload->second);
  return true;
}

void CertStore::store(const CertKey &Key, const Entry &E) {
  // Only evidence worth reusing is kept: a missing certificate or an
  // incomplete exploration would be rejected at load time anyway.
  if (!E.Cert || !E.Cert->CoverageComplete)
    return;
  evictIfFull();
  std::string Text = render(Key, E);
  fs::path Final = fs::path(Dir) / (Key.fileStem() + ".cert.json");
  // Atomic publish: concurrent checkers (ctest -j sharing one directory)
  // must never observe a torn entry, so write to a process-unique temp
  // file and rename over the final name.
  // The temp name must be unique per WRITER, not per process: the daemon's
  // worker threads share one CertStore, and two workers storing the same
  // key from a pid-only suffix would interleave writes into one temp file.
  static std::atomic<std::uint64_t> WriteSeq{0};
  fs::path Tmp = Final;
  Tmp += ".tmp." + std::to_string(
#ifdef _WIN32
                       0
#else
                       static_cast<long long>(::getpid())
#endif
                       ) +
         "." + std::to_string(WriteSeq.fetch_add(1));
  {
    std::ofstream OutF(Tmp, std::ios::binary | std::ios::trunc);
    if (!OutF)
      return;
    OutF << Text;
    if (!OutF)
      return;
  }
  std::error_code Ec;
  fs::rename(Tmp, Final, Ec);
  if (Ec) {
    fs::remove(Tmp, Ec);
    return;
  }
  ++ThisThread.Stores;
  count("cert.stores");
}

void CertStore::evictIfFull() {
  if (MaxEntries == 0)
    return;
  std::error_code Ec;
  std::vector<std::pair<fs::file_time_type, fs::path>> Entries;
  for (const fs::directory_entry &DE : fs::directory_iterator(Dir, Ec)) {
    const fs::path &P = DE.path();
    if (P.extension() != ".json")
      continue;
    // A failed stat yields a default-constructed (epoch) time that sorts
    // OLDEST — evicting healthy entries while the unstattable one (a
    // vanished or broken file) survives every round.  Skip it: it cannot
    // be meaningfully ordered, and if it is truly gone it no longer
    // occupies a slot anyway.  ENOENT specifically means another process
    // evicted it between the directory walk and the stat — a lost race,
    // not an error.
    std::error_code StatEc;
    fs::file_time_type T = fs::last_write_time(P, StatEc);
    if (StatEc) {
      // ENOENT with the directory entry itself gone means another process
      // evicted it between the walk and the stat — a lost race, not an
      // error.  ENOENT with the entry still present is a broken symlink
      // (the stat followed it), which stays a stat error like any other.
      std::error_code LinkEc;
      bool EntryGone = StatEc == std::errc::no_such_file_or_directory &&
                       fs::symlink_status(P, LinkEc).type() ==
                           fs::file_type::not_found;
      count(EntryGone ? "cert.evict_lost_race" : "cert.evict_stat_errors");
      continue;
    }
    Entries.emplace_back(T, P);
  }
  // Ties on coarse filesystem mtime granularity are broken by path (the
  // pair's second field), so eviction order is reproducible when several
  // entries land in one mtime tick.
  while (Entries.size() >= MaxEntries) {
    auto Oldest = std::min_element(Entries.begin(), Entries.end());
    if (Oldest == Entries.end())
      break;
    // Idempotent under concurrent evictors: remove() reporting "nothing
    // removed" (or ENOENT) means a peer got there first — its eviction
    // freed the slot, so counting ours too would double-book the cap.
    bool Removed = fs::remove(Oldest->second, Ec) && !Ec;
    Entries.erase(Oldest);
    count(Removed ? "cert.evictions" : "cert.evict_lost_race");
  }
}

bool CertStore::getOrCheck(const CertKey &Key,
                           const std::function<bool(const Entry &)> &Decode,
                           const std::function<Entry()> &Check) {
  Entry Stored;
  if (load(Key, Stored)) {
    if (Decode(Stored)) {
      ++ThisThread.Hits;
      count("cert.hits");
      return true;
    }
    // The document was well-formed but the checker could not rebuild its
    // report from the payload: same fail-closed treatment.
    count("cert.rejections");
    std::error_code Ec;
    std::filesystem::remove(
        fs::path(Dir) / (Key.fileStem() + ".cert.json"), Ec);
  }
  ++ThisThread.Misses;
  count("cert.misses");
  Entry Fresh = Check();
  store(Key, Fresh);
  return false;
}

cert::Traffic cert::threadTraffic() { return ThisThread; }

namespace {

std::mutex StoreMutex;
CertStore *GlobalStore = nullptr; // leaked deliberately (see obs/)
bool StoreInitialized = false;

} // namespace

CertStore *cert::store() {
  std::lock_guard<std::mutex> Lock(StoreMutex);
  if (!StoreInitialized) {
    StoreInitialized = true;
    const char *Dir = std::getenv("CCAL_CERT_CACHE");
    if (Dir && *Dir) {
      std::size_t Max = 0;
      if (const char *MaxStr = std::getenv("CCAL_CERT_CACHE_MAX"))
        Max = static_cast<std::size_t>(std::strtoull(MaxStr, nullptr, 10));
      GlobalStore = new CertStore(Dir, Max);
    }
  }
  return GlobalStore;
}

void cert::setStoreDir(const std::string &Dir, std::size_t MaxEntries) {
  std::lock_guard<std::mutex> Lock(StoreMutex);
  StoreInitialized = true;
  delete GlobalStore;
  GlobalStore = Dir.empty() ? nullptr : new CertStore(Dir, MaxEntries);
}
