/**
 * @file
 * Unit and property tests for the feature extractors and the
 * FeatureVector metric space. The load-bearing property for Potluck:
 * keys of perturbed images stay close while keys of unrelated images
 * stay far (Fig. 2's observation).
 */
#include <gtest/gtest.h>

#include <cmath>

#include "features/brief.h"
#include "features/colorhist.h"
#include "features/downsample.h"
#include "features/extractor.h"
#include "features/fast.h"
#include "features/harris.h"
#include "features/hog.h"
#include "features/mfcc.h"
#include "features/pca.h"
#include "features/phash.h"
#include "features/sift.h"
#include "features/surf.h"
#include "img/draw.h"
#include "img/transform.h"
#include "util/rng.h"

namespace potluck {
namespace {

/** A deterministic structured test image. */
Image
testScene(uint64_t seed, int w = 96, int h = 72)
{
    Rng rng(seed);
    Image img(w, h, 3);
    Color top{static_cast<uint8_t>(rng.uniformInt(30, 220)),
              static_cast<uint8_t>(rng.uniformInt(30, 220)),
              static_cast<uint8_t>(rng.uniformInt(30, 220))};
    Color bottom{static_cast<uint8_t>(rng.uniformInt(30, 220)),
                 static_cast<uint8_t>(rng.uniformInt(30, 220)),
                 static_cast<uint8_t>(rng.uniformInt(30, 220))};
    verticalGradient(img, top, bottom);
    for (int i = 0; i < 8; ++i) {
        Color c{static_cast<uint8_t>(rng.uniformInt(0, 255)),
                static_cast<uint8_t>(rng.uniformInt(0, 255)),
                static_cast<uint8_t>(rng.uniformInt(0, 255))};
        int x = static_cast<int>(rng.uniformInt(5, w - 6));
        int y = static_cast<int>(rng.uniformInt(5, h - 6));
        int s = static_cast<int>(rng.uniformInt(4, 14));
        if (i % 2)
            fillRect(img, x - s, y - s, x + s, y + s, c);
        else
            fillCircle(img, x, y, s, c);
    }
    return img;
}

/** Slightly perturbed version of an image (sensor noise + gain). */
Image
perturb(const Image &img, uint64_t seed)
{
    Rng rng(seed);
    Image out = adjustBrightnessContrast(img, 1.05, 2.0);
    addUniformNoise(out, rng, 4);
    return out;
}

TEST(FeatureVector, DistanceMetrics)
{
    FeatureVector a({0.0f, 0.0f, 0.0f});
    FeatureVector b({3.0f, 4.0f, 0.0f});
    EXPECT_DOUBLE_EQ(distance(a, b, Metric::L2), 5.0);
    EXPECT_DOUBLE_EQ(distance(a, b, Metric::L1), 7.0);
    FeatureVector c({1.0f, 0.0f});
    FeatureVector d({0.0f, 1.0f});
    EXPECT_NEAR(distance(c, d, Metric::Cosine), 1.0, 1e-9);
    EXPECT_NEAR(distance(c, c, Metric::Cosine), 0.0, 1e-9);
    FeatureVector e({1.0f, 0.0f, 1.0f, 0.0f});
    FeatureVector f({1.0f, 1.0f, 0.0f, 0.0f});
    EXPECT_DOUBLE_EQ(distance(e, f, Metric::Hamming), 2.0);
}

TEST(FeatureVector, NormalizeMakesUnitNorm)
{
    FeatureVector v({3.0f, 4.0f});
    v.normalize();
    EXPECT_NEAR(v.norm(), 1.0, 1e-6);
    FeatureVector zero({0.0f, 0.0f});
    zero.normalize(); // must not divide by zero
    EXPECT_DOUBLE_EQ(zero.norm(), 0.0);
}

TEST(FeatureVector, HashStableAndDiscriminating)
{
    FeatureVector a({1.0f, 2.0f, 3.0f});
    FeatureVector b({1.0f, 2.0f, 3.0f});
    FeatureVector c({1.0f, 2.0f, 3.0001f});
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_NE(a.hash(), c.hash());
}

TEST(FeatureVector, SizeBytes)
{
    FeatureVector v(std::vector<float>(100, 0.0f));
    EXPECT_EQ(v.sizeBytes(), 400u);
}

TEST(Registry, BuiltinsArePresent)
{
    auto reg = ExtractorRegistry::builtins();
    for (const char *name : {"colorhist", "downsamp", "hog", "fast",
                             "harris", "sift", "surf", "phash", "brief"})
        EXPECT_NE(reg.find(name), nullptr) << name;
    EXPECT_EQ(reg.find("nope"), nullptr);
}

TEST(Registry, AddReplacesByName)
{
    ExtractorRegistry reg;
    reg.add(std::make_shared<LambdaExtractor>(
        "custom", Metric::L1,
        [](const Image &) { return FeatureVector({1.0f}); }));
    reg.add(std::make_shared<LambdaExtractor>(
        "custom", Metric::L1,
        [](const Image &) { return FeatureVector({2.0f}); }));
    EXPECT_EQ(reg.names().size(), 1u);
    Image dummy(4, 4, 1);
    EXPECT_FLOAT_EQ(reg.find("custom")->extract(dummy)[0], 2.0f);
}

// ---- The stability/discrimination property, per extractor. ----

// ctest names each case after the raw bytes of its parameter, so the
// name is held inline: a pointer's bytes would differ in every build.
struct ExtractorCase
{
    char name[12];
    /** Max acceptable ratio of perturbed-distance / unrelated-distance. */
    float separation;
};

class ExtractorProperty : public ::testing::TestWithParam<ExtractorCase>
{
};

TEST_P(ExtractorProperty, PerturbedImagesCloserThanUnrelated)
{
    auto reg = ExtractorRegistry::builtins();
    auto extractor = reg.find(GetParam().name);
    ASSERT_NE(extractor, nullptr);

    Image scene_a = testScene(1);
    Image scene_b = testScene(2);

    FeatureVector base = extractor->extract(scene_a);
    double d_same = 0.0, d_other = 0.0;
    int trials = 3;
    for (int i = 0; i < trials; ++i) {
        d_same += distance(base, extractor->extract(perturb(scene_a, 10 + i)),
                           extractor->metric());
        d_other += distance(base, extractor->extract(perturb(scene_b, 20 + i)),
                            extractor->metric());
    }
    EXPECT_LT(d_same, d_other * GetParam().separation)
        << GetParam().name << ": same=" << d_same << " other=" << d_other;
}

TEST_P(ExtractorProperty, DeterministicOutput)
{
    auto reg = ExtractorRegistry::builtins();
    auto extractor = reg.find(GetParam().name);
    ASSERT_NE(extractor, nullptr);
    Image scene = testScene(3);
    EXPECT_EQ(extractor->extract(scene), extractor->extract(scene));
}

TEST_P(ExtractorProperty, FixedOutputDimensionAcrossSizes)
{
    auto reg = ExtractorRegistry::builtins();
    auto extractor = reg.find(GetParam().name);
    ASSERT_NE(extractor, nullptr);
    size_t d1 = extractor->extract(testScene(4, 96, 72)).size();
    size_t d2 = extractor->extract(testScene(5, 128, 96)).size();
    // HoG dimension depends on the cell grid; all others must be fixed.
    if (std::string(GetParam().name) != "hog") {
        EXPECT_EQ(d1, d2) << GetParam().name;
    }
    EXPECT_GT(d1, 0u);
    EXPECT_GT(d2, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllExtractors, ExtractorProperty,
    ::testing::Values(ExtractorCase{"colorhist", 0.9f},
                      ExtractorCase{"downsamp", 0.7f},
                      ExtractorCase{"hog", 0.9f},
                      ExtractorCase{"phash", 0.9f},
                      ExtractorCase{"sift", 0.95f},
                      ExtractorCase{"surf", 0.95f}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(ColorHist, SumsToChannels)
{
    ColorHistExtractor extractor(256);
    FeatureVector v = extractor.extract(testScene(1));
    EXPECT_EQ(v.size(), 768u);
    double sum = 0.0;
    for (size_t i = 0; i < v.size(); ++i)
        sum += v[i];
    EXPECT_NEAR(sum, 3.0, 1e-3); // unit mass per channel
}

TEST(ColorHist, InvariantToImageSize)
{
    ColorHistExtractor extractor(64);
    Image img = testScene(7, 64, 48);
    Image big = resizeNearest(img, 128, 96);
    double d = distance(extractor.extract(img), extractor.extract(big));
    EXPECT_LT(d, 0.05);
}

TEST(Downsample, DimensionAndRange)
{
    DownsampleExtractor extractor(8, 8, true);
    FeatureVector v = extractor.extract(testScene(1));
    EXPECT_EQ(v.size(), 64u);
    for (size_t i = 0; i < v.size(); ++i) {
        EXPECT_GE(v[i], 0.0f);
        EXPECT_LE(v[i], 1.0f);
    }
}

TEST(Downsample, ColorModeTriplesDimension)
{
    DownsampleExtractor grey(8, 8, true), color(8, 8, false);
    Image img = testScene(1);
    EXPECT_EQ(color.extract(img).size(), 3 * grey.extract(img).size());
}

TEST(Hog, RespondsToEdgeOrientation)
{
    // Vertical vs horizontal stripes must give clearly different keys.
    Image vertical(64, 64, 1);
    Image horizontal(64, 64, 1);
    for (int y = 0; y < 64; ++y)
        for (int x = 0; x < 64; ++x) {
            vertical.at(x, y) = (x / 8) % 2 ? 255 : 0;
            horizontal.at(x, y) = (y / 8) % 2 ? 255 : 0;
        }
    HogExtractor extractor;
    double d = distance(extractor.extract(vertical),
                        extractor.extract(horizontal));
    double d_self = distance(extractor.extract(vertical),
                             extractor.extract(vertical));
    EXPECT_DOUBLE_EQ(d_self, 0.0);
    EXPECT_GT(d, 1.0);
}

TEST(Fast, DetectsCornersOfSquare)
{
    Image img(64, 64, 1, 20);
    fillRect(img, 20, 20, 44, 44, Color{230, 230, 230});
    FastExtractor extractor(20, 8);
    auto corners = extractor.detect(img);
    EXPECT_GE(corners.size(), 4u);
    // At least one detection near each square corner.
    for (auto [cx, cy] : {std::pair{20, 20}, {44, 20}, {20, 44}, {44, 44}}) {
        bool found = false;
        for (const Corner &c : corners)
            if (std::abs(c.x - cx) <= 3 && std::abs(c.y - cy) <= 3)
                found = true;
        EXPECT_TRUE(found) << "no corner near (" << cx << "," << cy << ")";
    }
}

TEST(Fast, BlankImageHasNoCorners)
{
    Image img(64, 64, 1, 128);
    FastExtractor extractor;
    EXPECT_TRUE(extractor.detect(img).empty());
}

TEST(Harris, DetectsCornersNotEdges)
{
    Image img(64, 64, 1, 20);
    fillRect(img, 20, 20, 44, 44, Color{230, 230, 230});
    HarrisExtractor extractor;
    auto corners = extractor.detect(img);
    ASSERT_FALSE(corners.empty());
    // Detections cluster at corners, not along the straight edges.
    for (const Corner &c : corners) {
        bool near_corner = false;
        for (auto [cx, cy] :
             {std::pair{20, 20}, {44, 20}, {20, 44}, {44, 44}})
            if (std::abs(c.x - cx) <= 4 && std::abs(c.y - cy) <= 4)
                near_corner = true;
        EXPECT_TRUE(near_corner)
            << "spurious detection at (" << c.x << "," << c.y << ")";
    }
}

TEST(Sift, ProducesKeypointsWithUnitishDescriptors)
{
    SiftExtractor extractor;
    auto kps = extractor.detectAndDescribe(testScene(1, 128, 96));
    ASSERT_FALSE(kps.empty());
    for (const auto &kp : kps) {
        double norm = 0.0;
        for (float v : kp.descriptor)
            norm += static_cast<double>(v) * v;
        EXPECT_NEAR(std::sqrt(norm), 1.0, 0.05);
    }
}

TEST(Surf, ProducesKeypointsOnStructuredScene)
{
    SurfExtractor extractor;
    auto kps = extractor.detectAndDescribe(testScene(1, 128, 96));
    EXPECT_FALSE(kps.empty());
}

TEST(Phash, HammingKeyIsBinary)
{
    PhashExtractor extractor;
    FeatureVector v = extractor.extract(testScene(1));
    EXPECT_EQ(v.size(), 64u);
    for (size_t i = 0; i < v.size(); ++i)
        EXPECT_TRUE(v[i] == 0.0f || v[i] == 1.0f);
}

TEST(Phash, RobustToMildBlur)
{
    Image scene = testScene(1);
    PhashExtractor extractor;
    double d = distance(extractor.extract(scene),
                        extractor.extract(gaussianBlur(scene, 1.0)),
                        Metric::Hamming);
    EXPECT_LE(d, 10.0); // <= 10 of 64 bits flip
}

TEST(Brief, DescriptorsStableUnderNoise)
{
    BriefExtractor extractor;
    Image scene = testScene(21, 128, 96);
    auto kps_a = extractor.detectAndDescribe(scene);
    auto kps_b = extractor.detectAndDescribe(perturb(scene, 5));
    ASSERT_FALSE(kps_a.empty());
    ASSERT_FALSE(kps_b.empty());
    // Match each descriptor in A to its best in B: mean distance must
    // be far below the 128-bit expectation for random descriptors.
    double total = 0;
    for (const auto &a : kps_a) {
        size_t best = 256;
        for (const auto &b : kps_b)
            best = std::min(best, BriefExtractor::hamming(a.descriptor,
                                                          b.descriptor));
        total += static_cast<double>(best);
    }
    EXPECT_LT(total / kps_a.size(), 64.0);
}

TEST(Brief, PooledKeyIsBinaryAndFixedSize)
{
    BriefExtractor extractor;
    FeatureVector key = extractor.extract(testScene(22));
    EXPECT_EQ(key.size(), 256u);
    for (size_t i = 0; i < key.size(); ++i)
        EXPECT_TRUE(key[i] == 0.0f || key[i] == 1.0f);
    EXPECT_EQ(extractor.metric(), Metric::Hamming);
}

TEST(Brief, BlankImageGivesZeroKey)
{
    BriefExtractor extractor;
    FeatureVector key = extractor.extract(Image(64, 64, 1, 128));
    for (size_t i = 0; i < key.size(); ++i)
        EXPECT_FLOAT_EQ(key[i], 0.0f);
}

TEST(Mfcc, DistinguishesFrequencies)
{
    MfccExtractor extractor;
    auto tone = [](double freq, int n) {
        std::vector<float> samples(n);
        for (int i = 0; i < n; ++i)
            samples[i] =
                static_cast<float>(std::sin(2 * M_PI * freq * i / 16000.0));
        return samples;
    };
    FeatureVector low1 = extractor.extract(tone(440, 8000));
    FeatureVector low2 = extractor.extract(tone(445, 8000));
    FeatureVector high = extractor.extract(tone(3200, 8000));
    EXPECT_LT(distance(low1, low2), distance(low1, high));
}

TEST(Mfcc, ShortSignalYieldsZeroKey)
{
    MfccExtractor extractor;
    FeatureVector v = extractor.extract(std::vector<float>(10, 0.5f));
    for (size_t i = 0; i < v.size(); ++i)
        EXPECT_FLOAT_EQ(v[i], 0.0f);
}

std::vector<const float *>
rowsOf(const std::vector<FeatureVector> &samples)
{
    std::vector<const float *> rows;
    for (const FeatureVector &s : samples)
        rows.push_back(s.values().data());
    return rows;
}

TEST(Pca, RecoversDominantDirection)
{
    // Points spread along (1, 1)/sqrt(2) with tiny orthogonal noise.
    Rng rng(13);
    std::vector<FeatureVector> samples;
    for (int i = 0; i < 200; ++i) {
        double t = rng.gaussian(0, 5);
        double n = rng.gaussian(0, 0.1);
        samples.push_back(FeatureVector(
            {static_cast<float>(t + n), static_cast<float>(t - n)}));
    }
    Pca pca;
    pca.fit(rowsOf(samples), 2, 1);
    ASSERT_TRUE(pca.fitted());
    EXPECT_GT(pca.explainedVariance()[0], 0.98);
    // Projection separates points by t.
    FeatureVector lo = pca.transform(FeatureVector({-5.0f, -5.0f}));
    FeatureVector hi = pca.transform(FeatureVector({5.0f, 5.0f}));
    EXPECT_GT(std::abs(hi[0] - lo[0]), 9.0);
}

// The flat index's filter is exact only if the components are
// orthonormal: then no projection lengthens a vector. That must hold
// for full-rank samples and for rank-deficient ones, where the
// components past the rank come out as zero rather than as rounding
// residue.
TEST(Pca, ComponentsAreOrthonormal)
{
    constexpr size_t kDim = 96;
    constexpr int kComponents = 16;
    for (size_t rank : {kDim, size_t{5}}) {
        Rng rng(19 + rank);
        std::vector<FeatureVector> samples;
        for (int r = 0; r < 256; ++r) {
            std::vector<float> v(kDim, 1.5f);
            for (size_t i = 0; i < rank; ++i)
                v[i] = static_cast<float>(rng.gaussian(0, 1.0 + i % 7));
            samples.emplace_back(std::move(v));
        }
        Pca pca;
        pca.fit(rowsOf(samples), kDim, kComponents, 4);
        ASSERT_EQ(pca.outputDim(), kComponents);
        int nonzero = 0;
        for (int a = 0; a < kComponents; ++a) {
            for (int b = a; b < kComponents; ++b) {
                double dot = 0.0;
                for (size_t i = 0; i < kDim; ++i)
                    dot += pca.component(a, i) * pca.component(b, i);
                if (a != b) {
                    EXPECT_NEAR(dot, 0.0, 1e-12) << a << "," << b;
                } else if (dot != 0.0) {
                    EXPECT_NEAR(dot, 1.0, 1e-12) << a;
                }
                nonzero += a == b && dot != 0.0;
            }
        }
        EXPECT_EQ(nonzero, static_cast<int>(std::min<size_t>(
                               rank, kComponents)));
    }
}

TEST(Pca, TransformDimMismatchFatal)
{
    Pca pca;
    std::vector<FeatureVector> samples(10, FeatureVector({1.0f, 2.0f}));
    samples[0] = FeatureVector({0.0f, 0.0f});
    pca.fit(rowsOf(samples), 2, 1);
    EXPECT_THROW(pca.transform(FeatureVector({1.0f, 2.0f, 3.0f})),
                 FatalError);
}

} // namespace
} // namespace potluck
