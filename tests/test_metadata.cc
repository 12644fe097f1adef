/**
 * @file
 * Tests for the metadata document: the render/parse round trip that
 * lets SHARP recreate an experiment from its own records (§IV-d), and
 * the system-info capture.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "record/metadata.hh"
#include "record/sysinfo.hh"
#include "sim/machine.hh"
#include "support/metadata.hh"

namespace
{

using namespace sharp::record;
using sharp::support::loadMetadata;
using sharp::support::parseMetadata;
using sharp::support::sameMetadata;

MetadataDocument
sampleDoc()
{
    MetadataDocument doc;
    doc.setTitle("hotspot on machine2");
    doc.set("Experiment", "name", "hotspot");
    doc.set("Experiment", "runs", "1000");
    doc.set("Configuration", "rule", "ks");
    doc.set("Configuration", "threshold", "0.1");
    return doc;
}

TEST(Metadata, SetAndGet)
{
    MetadataDocument doc = sampleDoc();
    EXPECT_EQ(doc.get("Experiment", "name").value(), "hotspot");
    EXPECT_EQ(doc.getNumber("Configuration", "threshold").value(), 0.1);
    EXPECT_FALSE(doc.get("Experiment", "nope").has_value());
    EXPECT_FALSE(doc.get("NoSection", "name").has_value());
    EXPECT_TRUE(doc.findSection("Configuration"));
    EXPECT_FALSE(doc.findSection("Zilch"));
}

TEST(Metadata, SetReplacesInPlace)
{
    MetadataDocument doc;
    doc.set("S", "k", "1");
    doc.set("S", "k", "2");
    EXPECT_EQ(doc.get("S", "k").value(), "2");
    EXPECT_EQ(doc.sections().front().entries.size(), 1u);
}

TEST(Metadata, RenderContainsMarkdownStructure)
{
    std::string text = sampleDoc().render();
    EXPECT_NE(text.find("# hotspot on machine2"), std::string::npos);
    EXPECT_NE(text.find("## Experiment"), std::string::npos);
    EXPECT_NE(text.find("- **name**: hotspot"), std::string::npos);
}

TEST(Metadata, RoundTripIsIdentity)
{
    MetadataDocument doc = sampleDoc();
    MetadataDocument again = parseMetadata(doc.render());
    EXPECT_TRUE(sameMetadata(doc, again));
    // And stable under repeated round trips.
    MetadataDocument third = parseMetadata(again.render());
    EXPECT_TRUE(sameMetadata(again, third));
}

TEST(Metadata, ParseToleratesNarrativeLines)
{
    std::string text = "# title\n\nSome prose a human added.\n\n"
                       "## Sec\n\nMore prose.\n- **k**: v\n";
    MetadataDocument doc = parseMetadata(text);
    EXPECT_EQ(doc.get("Sec", "k").value(), "v");
    EXPECT_EQ(doc.getTitle(), "title");
}

TEST(Metadata, ParseRejectsMalformedEntries)
{
    EXPECT_THROW(parseMetadata("## S\n- **broken entry\n"),
                 std::runtime_error);
    EXPECT_THROW(parseMetadata("- **k**: orphan\n"),
                 std::runtime_error);
}

TEST(Metadata, ValuesWithColonsSurvive)
{
    MetadataDocument doc;
    doc.set("S", "time", "2024-08-01T10:00:00Z");
    MetadataDocument again = parseMetadata(doc.render());
    EXPECT_EQ(again.get("S", "time").value(), "2024-08-01T10:00:00Z");
}

TEST(Metadata, SaveAndLoad)
{
    namespace fs = std::filesystem;
    fs::path path = fs::temp_directory_path() / "sharp_test_meta.md";
    MetadataDocument doc = sampleDoc();
    doc.save(path.string());
    MetadataDocument loaded = loadMetadata(path.string());
    EXPECT_TRUE(sameMetadata(doc, loaded));
    fs::remove(path);
}

TEST(SysInfo, CapturesRealHost)
{
    SystemInfo info = captureHostInfo();
    EXPECT_FALSE(info.os.empty());
    EXPECT_GT(info.cpuCores, 0);
    EXPECT_GT(info.memoryMib, 0);
    EXPECT_FALSE(info.simulated);
}

TEST(SysInfo, DescribesSimulatedMachine)
{
    SystemInfo info =
        describeSimulatedMachine(sharp::sim::machineById("machine3"));
    EXPECT_EQ(info.hostname, "machine3");
    EXPECT_EQ(info.cpuCores, 96);
    EXPECT_EQ(info.memoryMib, 1024 * 1024);
    EXPECT_EQ(info.gpuModel, "Nvidia H100 80GB");
    EXPECT_TRUE(info.simulated);
}

TEST(SysInfo, MetadataRoundTrip)
{
    SystemInfo info =
        describeSimulatedMachine(sharp::sim::machineById("machine1"));
    MetadataDocument doc;
    info.addToMetadata(doc);
    SystemInfo again = SystemInfo::fromMetadata(doc);
    EXPECT_EQ(again.hostname, info.hostname);
    EXPECT_EQ(again.cpuModel, info.cpuModel);
    EXPECT_EQ(again.cpuCores, info.cpuCores);
    EXPECT_EQ(again.memoryMib, info.memoryMib);
    EXPECT_EQ(again.gpuModel, info.gpuModel);
    EXPECT_EQ(again.simulated, info.simulated);
}

TEST(SysInfo, GpulessMachineRoundTripsAsNone)
{
    SystemInfo info =
        describeSimulatedMachine(sharp::sim::machineById("machine2"));
    MetadataDocument doc;
    info.addToMetadata(doc);
    EXPECT_EQ(doc.get("System Under Test", "gpu_model").value(), "none");
    EXPECT_TRUE(SystemInfo::fromMetadata(doc).gpuModel.empty());
}

} // anonymous namespace
