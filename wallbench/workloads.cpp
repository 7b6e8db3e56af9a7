#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "analytics/kernels.h"
#include "blockchain/contracts.h"
#include "cache/cache.h"
#include "ckpt/checkpoint.h"
#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/asymmetric.h"
#include "crypto/session_cache.h"
#include "crypto/sha256.h"
#include "exec/executor.h"
#include "fhir/synthetic.h"
#include "host.h"
#include "ingestion/malware.h"
#include "net/network.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "platform/enhanced_client.h"
#include "platform/instance.h"
#include "privacy/deid.h"
#include "privacy/verification.h"
#include "provenance/provenance.h"
#include "stats.h"
#include "trace.h"

namespace wallbench {

using namespace hc;
using SteadyClock = std::chrono::steady_clock;

namespace {

// --- run shape ---------------------------------------------------------------

/// setup_s is the median of set-ups repeated through the timed window,
/// not bunched before it: the host's speed drifts over seconds, and set-ups
/// spread over the window meet the same host the operations do. `ingest`
/// replaces its instance every kIngestPass records, and `ingest_bulk`
/// builds and stages one per batch.

/// Operations excluded from the latency series at the start of a run.
constexpr std::size_t kWarmupOps = 20;
constexpr std::size_t kWarmupBatches = 3;
/// Closed-loop throughput is the median rate over this many equal chunks
/// of a run's operations: in a 50 s window a chunk spans about 2.5 s.
constexpr std::size_t kRateChunks = 20;

constexpr std::size_t kIngestPool = 1024;  // distinct patients cycled by `ingest`
constexpr std::size_t kIngestPass = 256;   // records one `ingest` instance takes
constexpr std::size_t kBulkBatch = 250;    // records per `ingest_bulk` batch
constexpr std::size_t kBulkPool = 4 * kBulkBatch;
constexpr std::size_t kBulkWorkers = 4;
constexpr std::size_t kReadsLake = 800;        // records ingested for `reads`
constexpr std::size_t kReadsCache = 256;       // client cache entries
constexpr std::size_t kReadOpsPool = 1 << 16;  // pre-drawn read operations
constexpr int kFitEpochs = 150;
constexpr double kAucFloor = 0.70;

const std::string kGroup = "study";

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

double us_since(SteadyClock::time_point t0) { return seconds_since(t0) * 1e6; }

/// The timed window: at least `seconds`, extended until the latency series
/// has enough samples for its p90, but never past twice the window.
struct Window {
  SteadyClock::time_point start = SteadyClock::now();
  double seconds = 0.0;
  std::size_t min_samples = 0;

  bool more(std::size_t samples) const {
    const double elapsed = seconds_since(start);
    if (elapsed >= 2.0 * seconds) return false;
    return elapsed < seconds || samples < min_samples;
  }
};

/// Runs `make()` and appends its duration to `seconds`.
template <typename Make>
auto timed_setup(Make make, std::vector<double>& seconds) {
  auto t0 = SteadyClock::now();
  auto built = make();
  seconds.push_back(seconds_since(t0));
  return built;
}

void add_end_to_end(Report& report, const std::vector<double>& setup_seconds,
                    double throughput, const LatencySummary& latency) {
  report.add("setup_s", median(setup_seconds), "s", setup_seconds.size());
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  report.add("throughput_per_s", throughput, "1/s");
  report.add("latency_us_p50", latency.p50, "us", latency.samples);
  report.add("latency_us_p90", latency.p90, "us", latency.samples);
  const double share = report.attempted == 0
                           ? 0.0
                           : static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted);
  report.add("failed_share", share, "1", report.attempted);
  if (!latency.ok) {
    report.fail("latency series too short for a p90 (" +
                std::to_string(latency.samples) + " samples after warm-up)");
  }
}

// --- platform under test ------------------------------------------------------

/// One health-cloud instance with one enhanced client on a WAN link, with
/// consent granted for every consented upload in `uploads`.
struct World {
  ClockPtr clock;
  std::unique_ptr<net::SimNetwork> network;
  std::unique_ptr<platform::HealthCloudInstance> cloud;
  std::unique_ptr<platform::EnhancedClient> client;
};

std::unique_ptr<World> make_world(const std::vector<Upload>& uploads, bool hybrid) {
  auto world = std::make_unique<World>();
  world->clock = make_clock();
  world->network = std::make_unique<net::SimNetwork>(world->clock, Rng(30));
  platform::InstanceConfig config;
  config.name = "cloud";
  config.hybrid_provenance = hybrid;
  world->cloud =
      std::make_unique<platform::HealthCloudInstance>(config, world->clock, *world->network);
  world->network->set_link("client", "cloud", net::LinkProfile::wan());
  platform::EnhancedClientConfig client_config;
  client_config.name = "client";
  client_config.cache_capacity = kReadsCache;
  world->client = std::make_unique<platform::EnhancedClient>(client_config, *world->cloud,
                                                             "clinic-bench");
  for (const Upload& upload : uploads) {
    if (!upload.consented) continue;
    const auto& patient = std::get<fhir::Patient>(upload.bundle.resources[0]);
    auto granted = world->cloud->ledger().submit_and_commit(
        "consent", {{"action", "grant"}, {"patient", patient.id}, {"group", kGroup}},
        "provider");
    if (!granted.is_ok()) {
      throw std::runtime_error("consent grant failed: " + granted.status().to_string());
    }
  }
  return world;
}

/// Stored exactly when expected, and a reject for the injected reason.
bool verdict_matches(const Upload& upload, const ingestion::ProcessOutcome& outcome) {
  if (upload.expect_stored()) return outcome.stored && !outcome.reference_id.empty();
  if (outcome.stored) return false;
  const std::string want = upload.infected ? "malware detected" : "patient has not consented";
  return outcome.failure_reason.rfind(want, 0) == 0;
}

/// `body` hashes to the content_hash the record's metadata carries.
bool record_matches(platform::HealthCloudInstance& cloud, const std::string& reference,
                    const Bytes& body) {
  auto metadata = cloud.metadata().get(reference);
  return metadata.is_ok() && crypto::sha256(body) == metadata->content_hash;
}

/// A stored de-identified record decrypts from the lake and matches its
/// metadata.
bool record_intact(platform::HealthCloudInstance& cloud, const std::string& reference) {
  auto body = cloud.lake().get(reference);
  return body.is_ok() && record_matches(cloud, reference, *body);
}

// --- ingest -------------------------------------------------------------------

/// The stage calls of IngestionService::process_message, made one by one
/// on a second instance so each can be timed. The envelope is opened with
/// the measured instance's client key; every write goes to the replay
/// instance, so the measured one sees exactly the end-to-end workload.
class IngestReplay {
 public:
  IngestReplay(World& measured, World& replay)
      : measured_(measured),
        replay_(replay),
        pseudonymizer_(Bytes(32, 0x5a)),
        verifier_(privacy::FieldSchema::standard_patient(), 0.99, 1),
        rng_(0x7e91a7) {}

  /// Seals `upload` to the measured client's key, then replays the server
  /// pipeline on it. Returns the number of ledger transactions submitted.
  std::size_t run(const Upload& upload, Tracer& tracer) {
    auto& kms = measured_.cloud->kms();
    const crypto::KeyId& client_key = measured_.client->client_key();
    Bytes plaintext_in = fhir::serialize_bundle(upload.bundle);
    crypto::Envelope envelope;
    {
      auto pub = kms.public_key(client_key);
      if (!pub.is_ok()) throw std::runtime_error("client public key missing");
      auto span = tracer.span("crypto.envelope_seal", plaintext_in.size());
      envelope = crypto::envelope_seal(*pub, plaintext_in, rng_);
    }
    probe_aes_encrypt(plaintext_in, tracer);

    auto group = tracer.span("ingestion.replay");
    crypto::PrivateKey priv;
    {
      auto span = tracer.span("crypto.kms_private_key");
      auto key = kms.private_key(client_key, "platform");
      if (!key.is_ok()) throw std::runtime_error("client private key unavailable");
      priv = *key;
    }
    Bytes session_key;
    {
      auto span = tracer.span("crypto.rsa_unwrap");
      session_key = crypto::envelope_unwrap_key(priv, envelope);
    }
    {
      auto span = tracer.span("crypto.hmac_verify", envelope.body.size());
      if (!crypto::envelope_tag_ok(session_key, envelope)) {
        throw std::runtime_error("replayed envelope failed its tag check");
      }
    }
    Bytes plaintext;
    {
      auto span = tracer.span("crypto.aes_decrypt", envelope.body.size());
      plaintext = crypto::envelope_decrypt_body(session_key, envelope);
    }
    Result<fhir::Bundle> bundle = Status(StatusCode::kInternal, "unparsed");
    {
      auto span = tracer.span("fhir.parse_bundle", plaintext.size());
      bundle = fhir::parse_bundle(plaintext);
    }
    if (!bundle.is_ok()) throw std::runtime_error("replayed bundle failed to parse");
    {
      auto span = tracer.span("fhir.validate_bundle");
      if (!fhir::validate_bundle(*bundle).is_ok()) {
        throw std::runtime_error("replayed bundle failed validation");
      }
    }
    ingestion::MalwareScanner::ScanResult scan;
    {
      auto span = tracer.span("ingestion.malware_scan", plaintext.size());
      scan = measured_.cloud->ingestion().scanner().scan(plaintext);
    }
    auto& ledger = replay_.cloud->ledger();
    if (scan.infected) {
      auto span = tracer.span("blockchain.submit_and_commit");
      (void)ledger.submit_and_commit("malware",
                                     {{"action", "report"},
                                      {"record_ref", upload.bundle.id},
                                      {"verdict", "infected"},
                                      {"sender", "clinic-bench"}},
                                     "ingestion-service");
      return 1;
    }
    const auto& patient = std::get<fhir::Patient>(bundle->resources[0]);
    bool consented = false;
    {
      auto span = tracer.span("blockchain.has_consent");
      consented = blockchain::ConsentContract::has_consent(ledger, patient.id, kGroup);
    }
    if (!consented) return 0;

    Result<privacy::DeidentifiedRecord> deid = Status(StatusCode::kInternal, "not run");
    {
      auto span = tracer.span("privacy.deidentify");
      deid = privacy::deidentify(fhir::patient_fields(patient),
                                 privacy::FieldSchema::standard_patient(), pseudonymizer_);
    }
    if (!deid.is_ok()) throw std::runtime_error("replayed de-identification failed");
    privacy::PrivacyDegree degree;
    {
      auto span = tracer.span("privacy.verify");
      degree = verifier_.verify(deid->fields, {"age", "zip", "gender"});
    }
    fhir::Bundle stored;
    {
      auto span = tracer.span("ingestion.rewrite_bundle");
      stored = rewrite(*bundle, *deid);
    }
    Bytes stored_bytes;
    {
      auto span = tracer.span("fhir.serialize_bundle");
      stored_bytes = fhir::serialize_bundle(stored);
    }
    Bytes content_hash, original_hash;
    {
      auto span = tracer.span("crypto.sha256", stored_bytes.size());
      content_hash = crypto::sha256(stored_bytes);
    }
    {
      auto span = tracer.span("crypto.sha256", plaintext.size());
      original_hash = crypto::sha256(plaintext);
    }
    crypto::KeyId key_id = patient_key(deid->pseudonym, tracer);
    auto& lake = replay_.cloud->lake();
    std::string reference, original;
    {
      auto span = tracer.span("storage.lake_put", stored_bytes.size());
      reference = lake.put(stored_bytes, key_id).value();
    }
    {
      auto span = tracer.span("storage.lake_put", plaintext.size());
      original = lake.put(plaintext, key_id).value();
    }
    user_bytes_ += stored_bytes.size() + plaintext.size();
    storage::RecordMetadata md;
    md.reference_id = reference;
    md.pseudonym = deid->pseudonym;
    md.consent_group = kGroup;
    md.schema = "fhir-bundle";
    md.privacy_level = "de-identified";
    md.content_hash = content_hash;
    md.original_reference_id = original;
    storage::RecordMetadata original_md = md;
    original_md.reference_id = original;
    original_md.consent_group = "";
    original_md.privacy_level = "identified";
    original_md.content_hash = original_hash;
    original_md.original_reference_id.clear();
    {
      auto span = tracer.span("storage.metadata_put");
      (void)replay_.cloud->metadata().put(original_md);
    }
    {
      auto span = tracer.span("storage.metadata_put");
      (void)replay_.cloud->metadata().put(md);
    }
    {
      auto span = tracer.span("privacy.reid_record");
      replay_.cloud->reid_map().record(deid->pseudonym, patient.id);
    }
    for (const char* event : {"received", "anonymized"}) {
      auto span = tracer.span("blockchain.submit_and_commit");
      (void)ledger.submit_and_commit("provenance",
                                     {{"action", "record_event"},
                                      {"record_ref", reference},
                                      {"event", event},
                                      {"data_hash", hex_encode(content_hash)}},
                                     "ingestion-service");
    }
    {
      char score[32];
      std::snprintf(score, sizeof(score), "%.3f", degree.record_score);
      auto span = tracer.span("blockchain.submit_and_commit");
      (void)ledger.submit_and_commit("privacy",
                                     {{"action", "record_degree"},
                                      {"record_ref", reference},
                                      {"score", score},
                                      {"k", std::to_string(degree.holistic_k)}},
                                     "ingestion-service");
    }
    return 3;
  }

  double lake_bytes_per_user_byte() const {
    return user_bytes_ == 0 ? 0.0
                            : static_cast<double>(replay_.cloud->lake().stored_bytes()) /
                                  static_cast<double>(user_bytes_);
  }

 private:
  /// AES-128-CBC encryption of `bytes` alone, outside the replay group, for
  /// the per-KB encrypt rate (lake_put hides it among KMS and MAC work).
  void probe_aes_encrypt(const Bytes& bytes, Tracer& tracer) {
    static const Bytes key(16, 0x2b);
    static const Bytes iv(16, 0x01);
    auto span = tracer.span("crypto.aes_encrypt", bytes.size());
    Bytes out = crypto::aes_cbc_encrypt(key, bytes, iv);
    sink_ += out.back();
  }

  static fhir::Bundle rewrite(const fhir::Bundle& in, const privacy::DeidentifiedRecord& deid) {
    fhir::Bundle out;
    out.id = in.id;
    for (const auto& resource : in.resources) {
      if (std::holds_alternative<fhir::Patient>(resource)) {
        out.resources.emplace_back(fhir::apply_deidentified_fields(deid.fields, deid.pseudonym));
      } else {
        fhir::Resource copy = resource;
        std::visit(
            [&](auto& r) {
              if constexpr (!std::is_same_v<std::decay_t<decltype(r)>, fhir::Patient>) {
                r.patient_id = deid.pseudonym;
              }
            },
            copy);
        out.resources.push_back(std::move(copy));
      }
    }
    return out;
  }

  crypto::KeyId patient_key(const std::string& pseudonym, Tracer& tracer) {
    auto it = keys_.find(pseudonym);
    if (it != keys_.end()) return it->second;
    auto span = tracer.span("crypto.kms_create_key");
    return keys_.emplace(pseudonym, replay_.cloud->kms().create_symmetric_key("platform"))
        .first->second;
  }

  World& measured_;
  World& replay_;
  privacy::Pseudonymizer pseudonymizer_;
  privacy::AnonymizationVerificationService verifier_;
  Rng rng_;
  std::map<std::string, crypto::KeyId> keys_;
  std::uint64_t user_bytes_ = 0;
  std::uint8_t sink_ = 0;
};

/// Median span duration of `name`, 0 when it never ran.
double median_us(const std::map<std::string, Tracer::Layer>& layers, const std::string& name) {
  auto it = layers.find(name);
  return it == layers.end() ? 0.0 : median(it->second.durations_us);
}

std::size_t span_count(const std::map<std::string, Tracer::Layer>& layers,
                       const std::string& name) {
  auto it = layers.find(name);
  return it == layers.end() ? 0 : it->second.durations_us.size();
}

/// Total microseconds per KiB of `name`, 0 when it never ran.
double us_per_kb(const std::map<std::string, Tracer::Layer>& layers, const std::string& name) {
  auto it = layers.find(name);
  if (it == layers.end() || it->second.bytes == 0) return 0.0;
  return it->second.total_us / (static_cast<double>(it->second.bytes) / 1024.0);
}

/// One closed-loop `ingest` operation: upload, then process_next until the
/// record's verdict. Returns false when the verdict or receipt is wrong.
bool ingest_one(World& world, const Upload& upload, Tracer& tracer,
                std::vector<std::string>* stored_refs) {
  Result<ingestion::UploadReceipt> receipt = Status(StatusCode::kInternal, "not sent");
  {
    auto span = tracer.span("platform.upload_bundle");
    receipt = world.client->upload_bundle(upload.bundle, kGroup);
  }
  if (!receipt.is_ok()) return false;
  Result<ingestion::ProcessOutcome> outcome = Status(StatusCode::kInternal, "not run");
  {
    auto span = tracer.span("ingestion.process_next");
    outcome = world.cloud->ingestion().process_next();
  }
  if (!outcome.is_ok() || outcome->upload_id != receipt->upload_id) return false;
  if (!verdict_matches(upload, *outcome)) return false;
  if (outcome->stored && stored_refs) stored_refs->push_back(outcome->reference_id);
  return true;
}

/// Checks one retired `ingest` instance: every stored reference decrypts
/// and matches its metadata, and the ledger chain validates.
void check_ingest_world(World& world, const std::vector<std::string>& stored, Report& report) {
  for (const std::string& reference : stored) {
    if (!record_intact(*world.cloud, reference)) report.fail("lake record " + reference);
  }
  if (!world.cloud->ledger().validate_chain().is_ok()) report.fail("ledger chain invalid");
}

Report run_ingest(const Options& options) {
  Report report;
  const std::vector<Upload> uploads = make_uploads(options.seed, kIngestPool, true);
  auto make = [&] { return make_world(uploads, false); };
  std::vector<double> setup_seconds;
  auto world = timed_setup(make, setup_seconds);

  // Every kIngestPass records go to a fresh instance, so the ledger, lake
  // and peak memory stop growing with the run's length; each replacement
  // is one more set-up sample.
  Tracer off(false);
  std::vector<double> latency;
  std::vector<std::string> stored;
  std::size_t checked = 0;
  Window window{SteadyClock::now(), options.seconds, min_samples_for_p90(kWarmupOps)};
  for (std::size_t i = 0; window.more(latency.size()); ++i) {
    if (i > 0 && i % kIngestPass == 0) {
      check_ingest_world(*world, stored, report);
      checked += stored.size();
      stored.clear();
      world.reset();
      world = timed_setup(make, setup_seconds);
    }
    const Upload& upload = uploads[i % uploads.size()];
    auto t0 = SteadyClock::now();
    bool ok = ingest_one(*world, upload, off, &stored);
    latency.push_back(us_since(t0));
    ++report.attempted;
    if (!ok) report.fail("verdict mismatch on " + upload.bundle.id);
  }
  check_ingest_world(*world, stored, report);
  checked += stored.size();
  report.notes.push_back("stored records checked: " + std::to_string(checked));
  add_end_to_end(report, setup_seconds,
                 equal_chunk_rate(drop_warmup(latency, kWarmupOps), kRateChunks),
                 summarize_latency(latency, kWarmupOps));
  return report;
}

// --- ingest_bulk ---------------------------------------------------------------

/// Batch `k` holds kBulkBatch uploads cycled from the pool, so batch
/// contents repeat every kBulkPool / kBulkBatch batches.
constexpr std::size_t kBulkContents = kBulkPool / kBulkBatch;

struct BatchResult {
  std::size_t stored = 0;
  std::string metrics_json;  // the instance's aggregate metrics after the drain
  bool chain_ok = false;
  double setup_s = 0.0;  // fresh instance plus staging
  double drain_us = 0.0;
};

/// The envelopes of every batch content, sealed once up front. Instance
/// and client seeds are fixed, so every fresh instance issues the same
/// client keypair and accepts envelopes sealed to `key`.
struct SealedBatches {
  crypto::PublicKey key;
  std::vector<std::vector<crypto::Envelope>> contents;  // [content][upload]
};

SealedBatches seal_batches(const std::vector<Upload>& uploads) {
  auto world = make_world({}, true);
  SealedBatches sealed;
  sealed.key = world->cloud->kms().public_key(world->client->client_key()).value();
  Rng rng(0x5ea1ed);
  for (std::size_t c = 0; c < kBulkContents; ++c) {
    auto& envelopes = sealed.contents.emplace_back();
    for (std::size_t j = 0; j < kBulkBatch; ++j) {
      const Upload& upload = uploads[c * kBulkBatch + j];
      envelopes.push_back(
          crypto::envelope_seal(sealed.key, fhir::serialize_bundle(upload.bundle), rng));
    }
  }
  return sealed;
}

/// Stages batch `k` on a fresh instance (the batch's set-up), then drains
/// it with `workers` (its latency). Every batch starts from the same state,
/// so batches differ only in their uploads, and the ledger and lake do not
/// grow across the run.
BatchResult drain_batch(const std::vector<Upload>& uploads, const SealedBatches& sealed,
                        std::size_t k, std::size_t workers, Tracer& tracer) {
  BatchResult result;
  const auto setup_start = SteadyClock::now();
  auto world = make_world(uploads, true);
  const crypto::KeyId& client_key = world->client->client_key();
  if (!(world->cloud->kms().public_key(client_key).value() == sealed.key)) {
    throw std::runtime_error("fresh instance issued a different client key");
  }
  for (const crypto::Envelope& envelope : sealed.contents[k % kBulkContents]) {
    auto receipt = world->cloud->ingestion().upload(envelope, "clinic-bench", kGroup, client_key);
    if (!receipt.is_ok()) throw std::runtime_error("bulk upload refused");
  }
  result.setup_s = seconds_since(setup_start);
  auto t0 = SteadyClock::now();
  {
    auto span = tracer.span("ingestion.process_all");
    result.stored = world->cloud->ingestion().process_all(workers);
  }
  result.drain_us = us_since(t0);
  result.metrics_json = obs::to_json(*world->cloud->metrics());
  result.chain_ok = world->cloud->ledger().validate_chain().is_ok();
  return result;
}

std::size_t expected_stored(const std::vector<Upload>& uploads, std::size_t k) {
  std::size_t n = 0;
  for (std::size_t j = 0; j < kBulkBatch; ++j) {
    n += uploads[(k % kBulkContents) * kBulkBatch + j].expect_stored() ? 1 : 0;
  }
  return n;
}

Report run_ingest_bulk(const Options& options) {
  Report report;
  const std::vector<Upload> uploads = make_uploads(options.seed, kBulkPool, true);
  const SealedBatches sealed = seal_batches(uploads);
  Tracer off(false);
  // The determinism contract: a 4-worker drain ends in the same state as a
  // serial drain of the same batch. One serial reference per batch content.
  std::vector<BatchResult> serial;
  for (std::size_t c = 0; c < kBulkContents; ++c) {
    serial.push_back(drain_batch(uploads, sealed, c, 1, off));
  }

  std::vector<double> setup_seconds, drain_us;
  Window window{SteadyClock::now(), options.seconds, min_samples_for_p90(kWarmupBatches)};
  for (std::size_t k = 0; window.more(drain_us.size()); ++k) {
    BatchResult batch = drain_batch(uploads, sealed, k, kBulkWorkers, off);
    ++report.attempted;
    setup_seconds.push_back(batch.setup_s);
    drain_us.push_back(batch.drain_us);
    const BatchResult& reference = serial[k % kBulkContents];
    if (batch.stored != expected_stored(uploads, k) || batch.stored != reference.stored ||
        batch.metrics_json != reference.metrics_json || !batch.chain_ok) {
      report.fail("batch " + std::to_string(k) + " diverged from its serial drain");
    }
  }
  report.notes.push_back("batch size " + std::to_string(kBulkBatch) + ", workers " +
                         std::to_string(kBulkWorkers));
  add_end_to_end(report, setup_seconds,
                 median(chunk_rates(drop_warmup(drain_us, kWarmupBatches), 1,
                                    static_cast<double>(kBulkBatch))),
                 summarize_latency(drain_us, kWarmupBatches));
  return report;
}

// --- reads (traced pass only) ----------------------------------------------------

struct ReadsWorld {
  std::unique_ptr<World> world;
  std::vector<std::string> references;  // de-identified records, ingest order
};

/// A lake of kReadsLake records, ingested with hybrid provenance and a
/// serial drain, then anchored.
ReadsWorld make_reads_world(const std::vector<Upload>& uploads) {
  ReadsWorld out;
  out.world = make_world(uploads, true);
  auto& cloud = *out.world->cloud;
  for (const Upload& upload : uploads) {
    auto receipt = out.world->client->upload_bundle(upload.bundle, kGroup);
    auto outcome = cloud.ingestion().process_next();
    if (!receipt.is_ok() || !outcome.is_ok() || !outcome->stored) {
      throw std::runtime_error("reads lake ingestion failed");
    }
    out.references.push_back(outcome->reference_id);
  }
  if (!cloud.anchorer()->flush().is_ok()) throw std::runtime_error("anchor flush failed");
  return out;
}

/// One `reads` operation. A fetch leaves the record in `fetched` for the
/// caller to check against its metadata outside the timed span; an audit
/// succeeds when its proof verifies and is anchored on chain.
bool read_one(ReadsWorld& rw, const ReadOp& op, Tracer& tracer, Bytes& fetched) {
  auto& cloud = *rw.world->cloud;
  const std::string& reference = rw.references[op.record];
  if (!op.audit) {
    auto span = tracer.span("platform.fetch_record");
    auto outcome = rw.world->client->fetch_record(reference);
    if (!outcome.is_ok()) return false;
    fetched = std::move(outcome->data);
    return true;
  }
  auto& auditor = *cloud.auditor();
  Result<provenance::MembershipProof> proof = Status(StatusCode::kInternal, "not run");
  {
    auto span = tracer.span("provenance.prove");
    proof = auditor.prove(reference);
  }
  if (!proof.is_ok()) return false;
  bool verified = false;
  {
    auto span = tracer.span("provenance.verify");
    verified = provenance::ProvenanceAuditor::verify(*proof);
  }
  Status onchain;
  {
    auto span = tracer.span("provenance.verify_onchain");
    onchain = auditor.verify_onchain(*proof);
  }
  return verified && onchain.is_ok();
}

// --- fit (traced pass only) ------------------------------------------------------

analytics::JmfConfig fit_config() {
  analytics::JmfConfig config;
  config.epochs = kFitEpochs;
  config.workers = 1;
  return config;
}

constexpr std::uint64_t kFitRngSeed = 0xf17;

analytics::JmfResult fit_once(const analytics::DrugDiseaseWorkload& inputs,
                              const analytics::JmfConfig& config,
                              analytics::JmfWorkspace& workspace) {
  Rng rng(kFitRngSeed);
  return analytics::joint_matrix_factorization(inputs.observed, inputs.drug_similarities,
                                               inputs.disease_similarities, config, rng,
                                               &workspace);
}

bool same_bits(const analytics::Matrix& a, const analytics::Matrix& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// What one `fit` operation produces: the fit, its held-out AUC, and the
/// checkpoint of its final state decoded again.
struct FitOutcome {
  analytics::JmfResult fit;
  double auc = 0.0;
  analytics::JmfResume state;
  Result<analytics::JmfResume> decoded = Status(StatusCode::kInternal, "not run");
};

/// One traced-pass `fit` operation, as timed: the fit, the held-out AUC, and the
/// checkpoint encode/decode of the final state. fit_matches compares the
/// results afterwards, outside the timed span.
FitOutcome fit_op(const analytics::DrugDiseaseWorkload& inputs,
                  const analytics::JmfConfig& config, analytics::JmfWorkspace& workspace,
                  Tracer& tracer) {
  FitOutcome out;
  out.fit = fit_once(inputs, config, workspace);
  {
    auto span = tracer.span("analytics.auc");
    Rng rng(0xa0c);
    out.auc = analytics::evaluate_held_out_auc(out.fit.scores, inputs, rng);
  }
  out.state.next_epoch = kFitEpochs;
  out.state.u = out.fit.factor_u;
  out.state.v = out.fit.factor_v;
  out.state.drug_source_weights = out.fit.drug_source_weights;
  out.state.disease_source_weights = out.fit.disease_source_weights;
  out.state.objective_history = out.fit.objective_history;
  static const Bytes data_key(16, 0x3c);
  Bytes file;
  {
    auto span = tracer.span("ckpt.encode_jmf");
    file = ckpt::encode_jmf(out.state, data_key);
  }
  {
    auto span = tracer.span("ckpt.decode_jmf", file.size());
    out.decoded = ckpt::decode_jmf(file, data_key);
  }
  return out;
}

/// The checks after each fit: held-out AUC above the floor, the objective
/// history bit-identical to the reference fit, and a bit-exact checkpoint
/// round trip of the final state.
bool fit_matches(const FitOutcome& out, const std::vector<double>& reference_history) {
  const analytics::JmfResume& state = out.state;
  const bool round_trip =
      out.decoded.is_ok() && out.decoded->next_epoch == state.next_epoch &&
      same_bits(out.decoded->u, state.u) && same_bits(out.decoded->v, state.v) &&
      same_bits(out.decoded->drug_source_weights, state.drug_source_weights) &&
      same_bits(out.decoded->disease_source_weights, state.disease_source_weights) &&
      same_bits(out.decoded->objective_history, state.objective_history);
  return out.auc >= kAucFloor && round_trip &&
         same_bits(out.fit.objective_history, reference_history);
}

// --- traced run ------------------------------------------------------------------
//
// The traced run measures per-layer costs with spans recorded here, around
// the calls into each layer. Each workload gets a quarter of the window.
// Operations alternate between untraced and traced, so both halves see the
// same state, and the tracing overhead is the traced median over the
// untraced median, minus one. Layer-only work (the ingest replay, the
// kernel and executor probes) runs after a traced operation's clock stops.

/// Operations a traced pass runs at least, however short its window.
constexpr std::size_t kMinTracedOps = 8;

struct TracedLoop {
  explicit TracedLoop(double window_seconds) : seconds(window_seconds) {}

  double seconds;
  std::vector<double> untraced_us, traced_us;

  bool more() const {
    return seconds_since(start) < seconds || traced_us.size() < kMinTracedOps;
  }
  double overhead() const {
    const double base = median(untraced_us);
    return base > 0.0 ? median(traced_us) / base - 1.0 : 0.0;
  }
  SteadyClock::time_point start = SteadyClock::now();
};

/// Median duration of `reps` calls of `fn`, in microseconds.
double probe_us(std::size_t reps, const std::function<void()>& fn) {
  std::vector<double> us;
  for (std::size_t i = 0; i < reps; ++i) {
    auto t0 = SteadyClock::now();
    fn();
    us.push_back(us_since(t0));
  }
  return median(us);
}

void trace_ingest(const Options& options, double seconds, Report& report) {
  const std::vector<Upload> uploads = make_uploads(options.seed, kIngestPool, true);
  auto world = make_world(uploads, false);
  auto replay_world = make_world(uploads, false);
  IngestReplay replay(*world, *replay_world);
  Tracer tracer(true), off(false);
  TracedLoop loop{seconds};
  std::size_t replayed = 0, txs = 0;
  for (std::size_t i = 0; loop.more(); ++i) {
    const Upload& upload = uploads[i % uploads.size()];
    const bool traced = i % 2 == 1;
    tracer.set_request(i);
    auto t0 = SteadyClock::now();
    const bool ok = ingest_one(*world, upload, traced ? tracer : off, nullptr);
    (traced ? loop.traced_us : loop.untraced_us).push_back(us_since(t0));
    ++report.attempted;
    if (!ok) report.fail("traced ingest verdict mismatch on " + upload.bundle.id);
    if (!traced) continue;
    txs += replay.run(upload, tracer);
    ++replayed;
  }

  // process_next self time: its duration minus the replayed stage calls.
  std::vector<double> covered = tracer.child_time_us();
  std::map<std::uint64_t, double> next_us, replay_us;
  for (std::size_t i = 0; i < tracer.records().size(); ++i) {
    const auto& r = tracer.records()[i];
    if (r.name == "ingestion.process_next") next_us[r.request] = r.duration_us();
    if (r.name == "ingestion.replay") replay_us[r.request] = covered[i];
  }
  std::vector<double> self_us;
  double self_total = 0.0, next_total = 0.0;
  for (const auto& [request, us] : next_us) {
    const double self = us - replay_us[request];
    self_us.push_back(self);
    self_total += self;
    next_total += us;
  }

  auto layers = tracer.layers();
  const double records = static_cast<double>(std::max<std::size_t>(replayed, 1));
  report.add("platform.upload_bundle_us", median_us(layers, "platform.upload_bundle"), "us",
             span_count(layers, "platform.upload_bundle"));
  report.add("crypto.envelope_seal_us", median_us(layers, "crypto.envelope_seal"), "us",
             span_count(layers, "crypto.envelope_seal"));
  report.add("crypto.rsa_unwrap_us", median_us(layers, "crypto.rsa_unwrap"), "us",
             span_count(layers, "crypto.rsa_unwrap"));
  report.add("crypto.hmac_verify_us", median_us(layers, "crypto.hmac_verify"), "us",
             span_count(layers, "crypto.hmac_verify"));
  report.add("crypto.aes_decrypt_us_per_kb", us_per_kb(layers, "crypto.aes_decrypt"), "us/KiB");
  report.add("crypto.aes_encrypt_us_per_kb", us_per_kb(layers, "crypto.aes_encrypt"), "us/KiB");
  report.add("crypto.sha256_us_per_kb", us_per_kb(layers, "crypto.sha256"), "us/KiB");
  for (const char* name : {"fhir.parse_bundle", "fhir.validate_bundle", "fhir.serialize_bundle",
                           "ingestion.malware_scan", "privacy.deidentify", "privacy.verify",
                           "blockchain.submit_and_commit", "blockchain.has_consent",
                           "storage.lake_put", "storage.metadata_put"}) {
    report.add(std::string(name) + "_us", median_us(layers, name), "us", span_count(layers, name));
  }
  report.add("blockchain.txs_per_record", static_cast<double>(txs) / records, "count");
  report.add("storage.lake_bytes_per_user_byte", replay.lake_bytes_per_user_byte(), "B/B");
  report.add("ingestion.process_next_us", median(loop.traced_us), "us", loop.traced_us.size());
  report.add("ingestion.process_next_self_us", median(self_us), "us", self_us.size());
  report.add("ingestion.unaccounted_share", next_total > 0 ? self_total / next_total : 0.0, "1");
  report.add("trace.overhead_share.ingest", loop.overhead(), "1");
}

void trace_ingest_bulk(const Options& options, double seconds, Report& report) {
  const std::vector<Upload> uploads = make_uploads(options.seed, kBulkPool, true);
  const SealedBatches sealed = seal_batches(uploads);
  Tracer tracer(true), off(false);
  TracedLoop loop{seconds};
  std::vector<double> per_record_us, flush_us;
  std::uint64_t hits = 0, misses = 0;
  for (std::size_t k = 0; loop.more(); ++k) {
    const bool traced = k % 2 == 1;
    BatchResult batch = drain_batch(uploads, sealed, k, kBulkWorkers, traced ? tracer : off);
    (traced ? loop.traced_us : loop.untraced_us).push_back(batch.drain_us);
    ++report.attempted;
    if (batch.stored != expected_stored(uploads, k) || !batch.chain_ok) {
      report.fail("traced batch " + std::to_string(k) + " stored the wrong records");
    }
    if (!traced) continue;
    per_record_us.push_back(batch.drain_us / static_cast<double>(kBulkBatch));

    // Layer replay on a fresh instance: the batch's envelopes through a
    // session-key cache (the client seals each upload under a fresh
    // session key), then a Merkle flush of two provenance events per
    // stored record.
    auto world = make_world({}, true);
    const crypto::KeyId client_key = world->client->client_key();
    crypto::SessionKeyCache cache(world->cloud->kms(), "platform");
    for (const crypto::Envelope& envelope : sealed.contents[k % kBulkContents]) {
      (void)cache.unwrap(client_key, envelope.wrapped_key);
    }
    hits += cache.stats().hits;
    misses += cache.stats().misses;
    auto* anchorer = world->cloud->anchorer();
    for (std::size_t j = 0; j < batch.stored; ++j) {
      const std::string ref = "record-" + std::to_string(j);
      const Bytes hash = crypto::sha256(ref);
      anchorer->append({ref, hash, "received", 0, 1536});
      anchorer->append({ref, hash, "anonymized", 1, 1536});
    }
    auto t0 = SteadyClock::now();
    if (!anchorer->flush().is_ok()) report.fail("provenance flush failed");
    flush_us.push_back(us_since(t0));
  }
  const double lookups = static_cast<double>(hits + misses);
  report.add("ingestion.process_all_us_per_record", median(per_record_us), "us",
             per_record_us.size());
  report.add("provenance.flush_us", median(flush_us), "us", flush_us.size());
  report.add("crypto.session_cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "1");
  report.add("crypto.rsa_unwraps", lookups > 0 ? misses / lookups : 0.0, "1/record");
  report.add("trace.overhead_share.ingest_bulk", loop.overhead(), "1");

  // Executor and metrics hot paths, probed on their own.
  {
    exec::ThreadPool pool(kBulkWorkers);
    report.add("exec.pool_dispatch_us", probe_us(400, [&] {
                 for (int t = 0; t < 4; ++t) pool.submit([] {});
                 pool.drain();
               }),
               "us", 400);
  }
  for (std::size_t workers : {1, 2, 4}) {
    report.add("exec.parallel_for_dispatch_us.w" + std::to_string(workers),
               probe_us(200, [&] { exec::parallel_for(64, workers, [](std::size_t) {}, 16); }),
               "us", 200);
  }
  const std::vector<std::string> categories = {"malware", "consent", "decrypt", "parse"};
  for (int threads : {1, 4}) {
    for (bool observe : {false, true}) {
      obs::MetricsRegistry registry;
      constexpr std::size_t kOps = 20000;
      auto t0 = SteadyClock::now();
      std::vector<std::thread> pool;
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
          for (std::size_t i = 0; i < kOps; ++i) {
            const std::string& category = categories[(i + static_cast<std::size_t>(t)) % 4];
            if (observe) {
              registry.observe(std::string("hc.ingestion.stage.") + category + "_us",
                               static_cast<double>(i % 500));
            } else {
              registry.add(std::string("hc.ingestion.reject.") + category);
            }
          }
        });
      }
      for (auto& th : pool) th.join();
      report.add(std::string(observe ? "obs.observe_us.t" : "obs.metrics_add_us.t") +
                     std::to_string(threads),
                 us_since(t0) / kOps, "us");
    }
  }
}

void trace_reads(const Options& options, double seconds, Report& report) {
  const std::vector<Upload> uploads = make_uploads(options.seed, kReadsLake, false);
  const std::vector<ReadOp> ops = make_read_ops(options.seed, kReadsLake, kReadOpsPool);
  ReadsWorld rw = make_reads_world(uploads);
  auto& cloud = *rw.world->cloud;
  // A cache of the client's size and policy fed the same keys, so its get
  // can be timed apart from fetch_record.
  cache::Cache mirror(kReadsCache, cache::EvictionPolicy::kLru, rw.world->clock);
  Tracer tracer(true), off(false);
  TracedLoop loop{seconds};
  for (std::size_t i = 0; loop.more(); ++i) {
    const ReadOp& op = ops[i % ops.size()];
    const bool traced = i % 2 == 1;
    const std::string& reference = rw.references[op.record];
    Bytes fetched;
    auto t0 = SteadyClock::now();
    bool ok = read_one(rw, op, traced ? tracer : off, fetched);
    (traced ? loop.traced_us : loop.untraced_us).push_back(us_since(t0));
    ++report.attempted;
    if (ok && !op.audit) ok = record_matches(cloud, reference, fetched);
    if (!ok) report.fail("traced read check failed on record " + std::to_string(op.record));
    if (op.audit) continue;
    bool hit = false;
    {
      auto span = tracer.span("cache.get");
      hit = mirror.get(reference).has_value();
    }
    if (!hit) {
      {
        auto span = tracer.span("storage.lake_get");
        fetched = cloud.lake().get(reference).value();
      }
      mirror.put(reference, fetched);
    }
  }
  auto layers = tracer.layers();
  for (const char* name : {"storage.lake_get", "cache.get", "provenance.prove",
                           "provenance.verify", "provenance.verify_onchain"}) {
    report.add(std::string(name) + "_us", median_us(layers, name), "us", span_count(layers, name));
  }
  report.add("cache.hit_ratio", rw.world->client->cache_stats().hit_ratio(), "1");
  report.add("trace.overhead_share.reads", loop.overhead(), "1");
}

void trace_fit(const Options& options, double seconds, Report& report) {
  const analytics::DrugDiseaseWorkload inputs = make_fit_inputs(options.seed);
  const analytics::JmfConfig plain = fit_config();
  analytics::JmfWorkspace workspace;
  const analytics::JmfResult warm = fit_once(inputs, plain, workspace);

  std::vector<double> epoch_us;
  SteadyClock::time_point last_epoch;
  analytics::JmfConfig hooked = plain;
  hooked.epoch_hook = [&](const analytics::JmfEpochView&) {
    auto now = SteadyClock::now();
    epoch_us.push_back(std::chrono::duration<double, std::micro>(now - last_epoch).count());
    last_epoch = now;
  };
  Tracer tracer(true), off(false);
  TracedLoop loop{seconds};
  for (std::size_t i = 0; loop.more(); ++i) {
    const bool traced = i % 2 == 1;
    auto t0 = SteadyClock::now();
    last_epoch = t0;
    const FitOutcome out =
        fit_op(inputs, traced ? hooked : plain, workspace, traced ? tracer : off);
    (traced ? loop.traced_us : loop.untraced_us).push_back(us_since(t0));
    ++report.attempted;
    if (!fit_matches(out, warm.objective_history)) {
      report.fail("traced fit " + std::to_string(i) + " failed its checks");
    }
  }

  // The dense kernels at the fit's shapes: residual = R - U V^T over the
  // drug x disease matrix, its transpose times U, and U U^T.
  const analytics::Matrix& u = warm.factor_u;
  const analytics::Matrix& v = warm.factor_v;
  analytics::Matrix residual, product, gram;
  report.add("analytics.kernels.syrk_us",
             probe_us(200, [&] { analytics::kernels::syrk_into(u, gram); }), "us", 200);
  report.add("analytics.kernels.fused_residual_us",
             probe_us(200, [&] { analytics::kernels::residual_into(inputs.observed, u, v, residual); }),
             "us", 200);
  report.add("analytics.kernels.transpose_multiply_us",
             probe_us(200, [&] { analytics::kernels::transpose_multiply_into(residual, u, product); }),
             "us", 200);

  auto layers = tracer.layers();
  report.add("analytics.jmf_epoch_us", median(epoch_us), "us", epoch_us.size());
  report.add("analytics.jmf_workspace_bytes", static_cast<double>(warm.peak_workspace_bytes),
             "B");
  for (const char* name : {"analytics.auc", "ckpt.encode_jmf", "ckpt.decode_jmf"}) {
    report.add(std::string(name) + "_us", median_us(layers, name), "us", span_count(layers, name));
  }
  report.add("trace.overhead_share.fit", loop.overhead(), "1");
}

/// Every workload's layers, whichever workload was named: the per-layer
/// metric set is the same in every traced run.
Report run_traced(const Options& options) {
  Report report;
  const double share = options.seconds / 4.0;
  trace_ingest(options, share, report);
  trace_ingest_bulk(options, share, report);
  trace_reads(options, share, report);
  trace_fit(options, share, report);
  return report;
}

}  // namespace

// --- inputs ------------------------------------------------------------------

std::vector<Upload> make_uploads(std::uint64_t seed, std::size_t count, bool inject) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x1a6e57);
  std::vector<Upload> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Upload upload;
    upload.bundle = fhir::make_synthetic_bundle(rng, "b" + std::to_string(i), i);
    upload.infected = inject && rng.bernoulli(kMalwareRate);
    upload.consented = !(inject && !upload.infected && rng.bernoulli(kConsentMissRate));
    if (upload.infected) {
      std::get<fhir::Patient>(upload.bundle.resources[0]).address =
          to_string(ingestion::test_malware_payload());
    }
    out.push_back(std::move(upload));
  }
  return out;
}

std::vector<ReadOp> make_read_ops(std::uint64_t seed, std::size_t records, std::size_t count) {
  Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 0x4ead5);
  std::vector<std::size_t> order(records);
  for (std::size_t i = 0; i < records; ++i) order[i] = i;
  rng.shuffle(order);
  std::vector<double> cdf(records);
  double total = 0.0;
  for (std::size_t k = 0; k < records; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    cdf[k] = total;
  }
  std::vector<ReadOp> ops(count);
  for (ReadOp& op : ops) {
    op.audit = rng.bernoulli(kAuditShare);
    const double u = rng.uniform(0.0, total);
    auto rank = static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    op.record = order[std::min(rank, records - 1)];
  }
  return ops;
}

analytics::DrugDiseaseWorkload make_fit_inputs(std::uint64_t seed) {
  analytics::WorkloadConfig config;
  config.drugs = kFitDrugs;
  config.diseases = kFitDiseases;
  Rng rng(seed * 0x94d049bb133111ebULL + 0xf17);
  return analytics::make_drug_disease_workload(config, rng);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"ingest", "ingest_bulk"};
  return names;
}

Report run(const Options& options) {
  if (std::find(workload_names().begin(), workload_names().end(), options.workload) ==
      workload_names().end()) {
    throw std::invalid_argument("unknown workload: " + options.workload);
  }
  if (options.trace) return run_traced(options);
  if (options.workload == "ingest") return run_ingest(options);
  return run_ingest_bulk(options);
}

}  // namespace wallbench
